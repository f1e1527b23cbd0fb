//! The `rte_mbuf`-equivalent packet descriptor.
//!
//! DPDK keeps each mbuf's metadata to exactly two cache lines (128 B),
//! with the RX-hot fields in the first line (paper §2.2).
//! [`rte_mbuf_layout`] describes where each field would live in memory
//! so accesses can be charged at the right simulated addresses.

use crate::layout::StructLayout;

/// Size of the modeled `rte_mbuf` structure (two cache lines).
pub const RTE_MBUF_SIZE: u32 = 128;

/// Builds the modeled `rte_mbuf` layout (DPDK v20.02-era field order).
///
/// First cache line: buffer bookkeeping and the RX fields the PMD writes
/// per packet. Second line: TX/chaining/pool fields.
pub fn rte_mbuf_layout() -> StructLayout {
    StructLayout::packed(
        "rte_mbuf",
        &[
            // ---- first cache line (RX hot) ----
            ("buf_addr", 8),
            ("iova", 8),
            ("data_off", 2),
            ("refcnt", 2),
            ("nb_segs", 2),
            ("port", 2),
            ("ol_flags", 8),
            ("packet_type", 4),
            ("pkt_len", 4),
            ("data_len", 2),
            ("vlan_tci", 2),
            ("rss_hash", 4),
            ("fdir_hi", 4),
            ("vlan_tci_outer", 2),
            ("buf_len", 2),
            ("timestamp", 8),
            // ---- second cache line (TX / chain / pool) ----
            ("cacheline1_pad", 8),
            ("next", 8),
            ("tx_offload", 8),
            ("pool", 8),
            ("shinfo", 8),
            ("priv_size", 2),
            ("timesync", 2),
            ("seqn", 4),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cache_lines() {
        let l = rte_mbuf_layout();
        assert!(l.size() <= RTE_MBUF_SIZE, "size {} > 128", l.size());
        assert_eq!(l.size_lines(), 128);
    }

    #[test]
    fn rx_hot_fields_in_first_line() {
        let l = rte_mbuf_layout();
        for f in [
            "buf_addr", "data_off", "pkt_len", "data_len", "rss_hash", "vlan_tci",
        ] {
            assert_eq!(l.line_of(f), 0, "{f} must be in the first line");
        }
    }

    #[test]
    fn tx_fields_in_second_line() {
        let l = rte_mbuf_layout();
        for f in ["next", "tx_offload", "pool"] {
            assert_eq!(l.line_of(f), 1, "{f} must be in the second line");
        }
    }
}
