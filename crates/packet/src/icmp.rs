//! ICMP header parsing and validation.

use crate::checksum::{checksum_skipping, fold, sum_fill, sum_words};
use crate::{be16, put16, ParseError};

/// ICMP header length (type/code/checksum + rest-of-header).
pub const ICMP_LEN: usize = 8;

/// Well-known ICMP message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpType(pub u8);

impl IcmpType {
    /// Echo reply (0).
    pub const ECHO_REPLY: IcmpType = IcmpType(0);
    /// Destination unreachable (3).
    pub const DEST_UNREACHABLE: IcmpType = IcmpType(3);
    /// Echo request (8).
    pub const ECHO_REQUEST: IcmpType = IcmpType(8);
    /// Time exceeded (11).
    pub const TIME_EXCEEDED: IcmpType = IcmpType(11);
}

/// A parsed ICMP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpHeader {
    /// Message type.
    pub icmp_type: IcmpType,
    /// Message code.
    pub code: u8,
    /// Checksum from the wire (covers header + payload).
    pub checksum: u16,
    /// Rest-of-header (identifier/sequence for echo).
    pub rest: u32,
}

impl IcmpHeader {
    /// Parses an ICMP header from the front of `b`.
    pub fn parse(b: &[u8]) -> Result<IcmpHeader, ParseError> {
        if b.len() < ICMP_LEN {
            return Err(ParseError::Truncated {
                what: "icmp",
                need: ICMP_LEN,
                have: b.len(),
            });
        }
        Ok(IcmpHeader {
            icmp_type: IcmpType(b[0]),
            code: b[1],
            checksum: be16(b, 2),
            rest: crate::be32(b, 4),
        })
    }

    /// Writes this header to the front of `b` and computes the checksum
    /// over the message: all of `b` (the header and any payload held
    /// there), then `fill_len` bytes of `fill` that follow it, summed in
    /// closed form ([`sum_fill`]) so the run need not exist in memory.
    ///
    /// # Panics
    ///
    /// Panics if `b` is shorter than the header, or a run follows an
    /// odd-length `b` (it would not start on a 16-bit word).
    pub fn write(&self, b: &mut [u8], fill: u8, fill_len: usize) {
        assert!(b.len() >= ICMP_LEN);
        assert!(
            fill_len == 0 || b.len().is_multiple_of(2),
            "fill run off a word"
        );
        b[0] = self.icmp_type.0;
        b[1] = self.code;
        put16(b, 2, 0);
        crate::put32(b, 4, self.rest);
        let c = !fold(sum_fill(fill, fill_len, sum_words(b, 0)));
        put16(b, 2, c);
    }

    /// Verifies the message checksum over `b[..msg_len]`.
    pub fn verify_checksum(&self, b: &[u8], msg_len: usize) -> bool {
        msg_len >= ICMP_LEN
            && b.len() >= msg_len
            && checksum_skipping(&b[..msg_len], 2) == self.checksum
    }

    /// True if the type/code combination is one a strict header checker
    /// accepts (known type, code valid for that type).
    pub fn is_known_type(&self) -> bool {
        match self.icmp_type.0 {
            0 | 8 => self.code == 0,
            3 => self.code <= 15,
            11 => self.code <= 1,
            4 | 5 | 12 | 13 | 14 => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip_with_payload() {
        let mut b = vec![0u8; 16];
        b[8..].copy_from_slice(b"pingdata");
        IcmpHeader {
            icmp_type: IcmpType::ECHO_REQUEST,
            code: 0,
            checksum: 0,
            rest: 0x0001_0002,
        }
        .write(&mut b, 0, 0);
        let h = IcmpHeader::parse(&b).unwrap();
        assert_eq!(h.icmp_type, IcmpType::ECHO_REQUEST);
        assert_eq!(h.rest, 0x0001_0002);
        assert!(h.verify_checksum(&b, 16));
    }

    #[test]
    fn fill_run_checksum_covers_the_run() {
        let mut b = vec![0u8; 8];
        IcmpHeader {
            icmp_type: IcmpType::ECHO_REQUEST,
            code: 0,
            checksum: 0,
            rest: 7,
        }
        .write(&mut b, 0x5A, 13);
        b.resize(8 + 13, 0x5A);
        let h = IcmpHeader::parse(&b).unwrap();
        assert!(h.verify_checksum(&b, b.len()));
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut b = vec![0u8; 8];
        IcmpHeader {
            icmp_type: IcmpType::ECHO_REPLY,
            code: 0,
            checksum: 0,
            rest: 0,
        }
        .write(&mut b, 0, 0);
        b[4] ^= 0xff; // corrupt payload word
        let h = IcmpHeader::parse(&b).unwrap();
        assert!(!h.verify_checksum(&b, 8));
    }

    #[test]
    fn truncated() {
        assert!(IcmpHeader::parse(&[0u8; 7]).is_err());
    }

    #[test]
    fn known_types() {
        let mk = |t: u8, c: u8| IcmpHeader {
            icmp_type: IcmpType(t),
            code: c,
            checksum: 0,
            rest: 0,
        };
        assert!(mk(8, 0).is_known_type());
        assert!(!mk(8, 3).is_known_type());
        assert!(mk(3, 13).is_known_type());
        assert!(!mk(3, 99).is_known_type());
        assert!(!mk(200, 0).is_known_type());
    }
}
