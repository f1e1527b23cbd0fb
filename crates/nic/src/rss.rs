//! Receive-side scaling: the Toeplitz hash and an indirection table.
//!
//! The multicore NAT experiment (paper §4.5, Fig. 10) "uses RSS to
//! distribute packets among different cores". This module implements the
//! real Microsoft Toeplitz hash over the IPv4 4-tuple with the standard
//! verification key, plus the 128-entry indirection table real NICs use
//! to map hashes to queues. Hashing the 4-tuple keeps each flow on one
//! queue — which the stateful NAT requires for correctness.

use pm_packet::{ether::EtherHeader, ether::EtherType, ipv4::IpProto, ipv4::Ipv4Header};

/// The Toeplitz hash function with a 40-byte key.
#[derive(Debug, Clone)]
pub struct Toeplitz {
    key: [u8; 40],
    /// Per-(byte position, byte value) hash contributions for the
    /// 12-byte IPv4 4-tuple input. Toeplitz is linear over GF(2) in the
    /// input bits, so the hash of any 12-byte input is the XOR of one
    /// table entry per byte — the same trick DPDK's software RSS uses.
    /// Built once per key; pure precomputation, no behaviour change.
    v4_tables: Box<[[u32; 256]; 12]>,
}

/// Microsoft's RSS verification key (from the RSS specification; also the
/// default in many drivers).
pub const MSFT_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

impl Toeplitz {
    /// Creates a hasher with the standard Microsoft key.
    pub fn microsoft() -> Self {
        Self::with_key(MSFT_KEY)
    }

    /// Creates a hasher with a custom 40-byte key.
    pub fn with_key(key: [u8; 40]) -> Self {
        // 32-bit window of the key starting at bit `g` (MSB-first).
        let window = |g: usize| -> u32 {
            let mut w = 0u64;
            for i in 0..5 {
                w = (w << 8) | u64::from(key[g / 8 + i]);
            }
            (w >> (8 - g % 8)) as u32
        };
        let mut v4_tables: Box<[[u32; 256]; 12]> =
            vec![[0u32; 256]; 12].into_boxed_slice().try_into().unwrap();
        for (i, table) in v4_tables.iter_mut().enumerate() {
            for (v, slot) in table.iter_mut().enumerate() {
                let mut h = 0u32;
                for bit in (0..8).rev() {
                    if v >> bit & 1 == 1 {
                        h ^= window(8 * i + (7 - bit));
                    }
                }
                *slot = h;
            }
        }
        Toeplitz { key, v4_tables }
    }

    /// The key this hasher was built with.
    pub fn key(&self) -> &[u8; 40] {
        &self.key
    }

    /// The RSS hash a device programmed with this key assigns to
    /// `frame`.
    ///
    /// IPv4 TCP/UDP hash the 4-tuple; other IPv4 hashes addresses only;
    /// non-IP traffic hashes to 0 (lands on queue 0, like real devices
    /// configured for IPv4 RSS).
    pub fn hash_frame(&self, frame: &[u8]) -> u32 {
        let Ok(eth) = EtherHeader::parse(frame) else {
            return 0;
        };
        if eth.ethertype != EtherType::IPV4 {
            return 0;
        }
        let Ok(ip) = Ipv4Header::parse(&frame[14..]) else {
            return 0;
        };
        // A truncated frame can end inside the IP header's claimed
        // length; hash whatever L4 bytes actually exist.
        let l4 = frame.get(14 + ip.header_len..).unwrap_or(&[]);
        let ports = match ip.protocol {
            IpProto::TCP | IpProto::UDP if l4.len() >= 4 && !ip.is_fragment() => {
                Some((crate::ring_be16(l4, 0), crate::ring_be16(l4, 2)))
            }
            _ => None,
        };
        match ports {
            Some((sp, dp)) => self.hash_v4_tuple(ip.src, ip.dst, sp, dp),
            None => self.hash_v4_tuple(ip.src, ip.dst, 0, 0),
        }
    }

    /// Hashes an arbitrary input (each bit selects a shifted 32-bit window
    /// of the key).
    pub fn hash(&self, input: &[u8]) -> u32 {
        let mut result = 0u32;
        // Current 32-bit window of the key, advanced bit by bit.
        let mut window = u32::from_be_bytes([self.key[0], self.key[1], self.key[2], self.key[3]]);
        let mut next_byte = 4usize;
        let mut bits_used = 0u32;
        for &byte in input {
            for bit in (0..8).rev() {
                if byte >> bit & 1 == 1 {
                    result ^= window;
                }
                // Shift the window left by one, pulling in the next key bit.
                let next_bit = if next_byte < self.key.len() {
                    (self.key[next_byte] >> (7 - bits_used % 8)) & 1
                } else {
                    0
                };
                window = (window << 1) | u32::from(next_bit);
                bits_used += 1;
                if bits_used.is_multiple_of(8) {
                    next_byte += 1;
                }
            }
        }
        result
    }

    /// Hashes the IPv4 4-tuple in RSS input order (src ip, dst ip,
    /// src port, dst port — all big-endian).
    pub fn hash_v4_tuple(&self, src: [u8; 4], dst: [u8; 4], src_port: u16, dst_port: u16) -> u32 {
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&src);
        input[4..8].copy_from_slice(&dst);
        input[8..10].copy_from_slice(&src_port.to_be_bytes());
        input[10..12].copy_from_slice(&dst_port.to_be_bytes());
        let mut h = 0u32;
        for (i, &b) in input.iter().enumerate() {
            h ^= self.v4_tables[i][usize::from(b)];
        }
        h
    }
}

/// A 128-entry RSS indirection table mapping hash → queue.
#[derive(Debug, Clone)]
pub struct IndirectionTable {
    entries: [u16; 128],
}

impl IndirectionTable {
    /// Round-robin table over `queues` queues.
    ///
    /// When `queues` does not divide 128 the table carries a residual
    /// imbalance: the first `128 % queues` queues own one extra entry
    /// (e.g. 3 queues get 43/43/42 entries, a ~2 % skew). Real NICs have
    /// the same bias with a default indirection table; we keep it rather
    /// than hide it, and experiments must not assume perfectly equal
    /// per-queue load. What *is* guaranteed — and what the stateful NAT
    /// (paper §4.5) relies on — is that [`IndirectionTable::queue_for`]
    /// is a pure function of the hash, so a flow's 4-tuple always lands
    /// on the same queue.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero or exceeds `u16::MAX`.
    pub fn round_robin(queues: usize) -> Self {
        assert!(queues > 0 && queues <= u16::MAX as usize);
        let mut entries = [0u16; 128];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = (i % queues) as u16;
        }
        IndirectionTable { entries }
    }

    /// Maps a hash value to a queue index.
    pub fn queue_for(&self, hash: u32) -> usize {
        self.entries[(hash & 127) as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test vectors from the Microsoft RSS specification ("Verifying the
    /// RSS Hash Calculation", IPv4 with ports).
    #[test]
    fn msft_verification_vectors() {
        let t = Toeplitz::microsoft();
        // 66.9.149.187:2794 -> 161.142.100.80:1766
        let h = t.hash_v4_tuple([66, 9, 149, 187], [161, 142, 100, 80], 2794, 1766);
        assert_eq!(h, 0x51cc_c178);
        // 199.92.111.2:14230 -> 65.69.140.83:4739
        let h = t.hash_v4_tuple([199, 92, 111, 2], [65, 69, 140, 83], 14230, 4739);
        assert_eq!(h, 0xc626_b0ea);
        // 24.19.198.95:12898 -> 12.22.207.184:38024
        let h = t.hash_v4_tuple([24, 19, 198, 95], [12, 22, 207, 184], 12898, 38024);
        assert_eq!(h, 0x5c2b_394a);
    }

    /// The per-byte table path must agree with the bit-serial reference
    /// `hash` for arbitrary tuples (and arbitrary keys).
    #[test]
    fn v4_tables_match_bit_serial_hash() {
        let mut key = [0u8; 40];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        for t in [Toeplitz::microsoft(), Toeplitz::with_key(key)] {
            let mut x = 0x1234_5678_9abc_def0u64;
            for _ in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let b = x.to_be_bytes();
                let src = [b[0], b[1], b[2], b[3]];
                let dst = [b[4], b[5], b[6], b[7]];
                let (sp, dp) = ((x >> 16) as u16, x as u16);
                let mut input = [0u8; 12];
                input[0..4].copy_from_slice(&src);
                input[4..8].copy_from_slice(&dst);
                input[8..10].copy_from_slice(&sp.to_be_bytes());
                input[10..12].copy_from_slice(&dp.to_be_bytes());
                assert_eq!(t.hash_v4_tuple(src, dst, sp, dp), t.hash(&input));
            }
        }
    }

    #[test]
    fn same_flow_same_hash() {
        let t = Toeplitz::microsoft();
        let a = t.hash_v4_tuple([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80);
        let b = t.hash_v4_tuple([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80);
        assert_eq!(a, b);
    }

    #[test]
    fn different_flows_spread() {
        let t = Toeplitz::microsoft();
        let table = IndirectionTable::round_robin(4);
        let mut counts = [0usize; 4];
        for p in 0..512u16 {
            let h = t.hash_v4_tuple([10, 0, 0, 1], [10, 0, 0, 2], 1000 + p, 80);
            counts[table.queue_for(h)] += 1;
        }
        for (q, &c) in counts.iter().enumerate() {
            assert!(c > 64, "queue {q} underloaded: {c}/512");
        }
    }

    #[test]
    fn indirection_round_robin() {
        let t = IndirectionTable::round_robin(3);
        assert_eq!(t.queue_for(0), 0);
        assert_eq!(t.queue_for(1), 1);
        assert_eq!(t.queue_for(2), 2);
        assert_eq!(t.queue_for(3), 0);
        assert_eq!(t.queue_for(128), 0, "hash masked to 7 bits");
    }

    /// Documents the residual imbalance when the queue count does not
    /// divide the 128-entry table: the first `128 % q` queues get one
    /// extra entry, and every entry stays in range.
    #[test]
    fn round_robin_residual_imbalance() {
        for q in 1..=8usize {
            let t = IndirectionTable::round_robin(q);
            let mut counts = vec![0usize; q];
            for h in 0..128u32 {
                let dest = t.queue_for(h);
                assert!(dest < q, "entry out of range for {q} queues");
                counts[dest] += 1;
            }
            for (i, &c) in counts.iter().enumerate() {
                let expect = 128 / q + usize::from(i < 128 % q);
                assert_eq!(c, expect, "queue {i} of {q}");
            }
        }
        // The concrete case from the docs: 3 queues split 43/43/42.
        let t = IndirectionTable::round_robin(3);
        let mut counts = [0usize; 3];
        for h in 0..128u32 {
            counts[t.queue_for(h)] += 1;
        }
        assert_eq!(counts, [43, 43, 42]);
    }

    #[test]
    #[should_panic]
    fn zero_queues_rejected() {
        let _ = IndirectionTable::round_robin(0);
    }
}
