//! 802.1Q VLAN tagging: parse, encapsulate, decapsulate.
//!
//! The paper's IDS configuration (§A.3) "eventually encapsulates the
//! packet in a VLAN header"; `VlanEncap`/`VlanDecap` elements use these
//! helpers.

use crate::ether::EtherType;
use crate::{be16, put16, ParseError};

/// Length of one 802.1Q tag.
pub const VLAN_TAG_LEN: usize = 4;

/// A parsed 802.1Q tag (the four bytes following the MAC addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlanTag {
    /// Priority code point (0–7).
    pub pcp: u8,
    /// Drop eligible indicator.
    pub dei: bool,
    /// VLAN identifier (0–4095).
    pub vid: u16,
    /// EtherType of the encapsulated payload.
    pub inner_type: EtherType,
}

impl VlanTag {
    /// Packs PCP/DEI/VID into the 16-bit TCI field.
    pub fn tci(&self) -> u16 {
        (u16::from(self.pcp) << 13) | (u16::from(self.dei) << 12) | (self.vid & 0x0fff)
    }

    /// Unpacks a TCI field.
    pub fn from_tci(tci: u16, inner_type: EtherType) -> VlanTag {
        VlanTag {
            pcp: (tci >> 13) as u8,
            dei: tci & 0x1000 != 0,
            vid: tci & 0x0fff,
            inner_type,
        }
    }

    /// Parses the tag from a full Ethernet frame `b` (which must carry
    /// EtherType 0x8100 at offset 12).
    pub fn parse_frame(b: &[u8]) -> Result<VlanTag, ParseError> {
        if b.len() < 18 {
            return Err(ParseError::Truncated {
                what: "vlan",
                need: 18,
                have: b.len(),
            });
        }
        if be16(b, 12) != EtherType::VLAN.0 {
            return Err(ParseError::Malformed {
                what: "vlan",
                reason: "outer ethertype is not 0x8100",
            });
        }
        Ok(VlanTag::from_tci(be16(b, 14), EtherType(be16(b, 16))))
    }
}

/// Inserts a VLAN tag into an untagged Ethernet frame.
///
/// `frame` holds `len` valid bytes and must have at least
/// `len + VLAN_TAG_LEN` capacity. Returns the new frame length.
///
/// # Errors
///
/// `Truncated` if the frame is shorter than 14 bytes, `Malformed` if
/// the buffer has no room for the tag. Callers feed these straight from
/// the wire (possibly fault-truncated), so malformed input must surface
/// as an error — never a panic.
pub fn encap_in_place(frame: &mut [u8], len: usize, tag: VlanTag) -> Result<usize, ParseError> {
    if len < 14 {
        return Err(ParseError::Truncated {
            what: "vlan-encap",
            need: 14,
            have: len,
        });
    }
    if frame.len() < len + VLAN_TAG_LEN {
        return Err(ParseError::Malformed {
            what: "vlan-encap",
            reason: "no buffer room for the tag",
        });
    }
    let inner_type = be16(frame, 12);
    // Shift everything after the MAC addresses right by 4 bytes.
    frame.copy_within(12..len, 16);
    put16(frame, 12, EtherType::VLAN.0);
    put16(frame, 14, tag.tci());
    // The shifted bytes start with the original EtherType at 16 already.
    assert_eq!(be16(frame, 16), inner_type);
    Ok(len + VLAN_TAG_LEN)
}

/// Removes the VLAN tag from a tagged frame. Returns the new length.
///
/// # Errors
///
/// `Truncated` if the frame is shorter than 18 bytes, `Malformed` if it
/// carries no 802.1Q tag.
pub fn decap_in_place(frame: &mut [u8], len: usize) -> Result<usize, ParseError> {
    if len < 18 {
        return Err(ParseError::Truncated {
            what: "vlan-decap",
            need: 18,
            have: len,
        });
    }
    if be16(frame, 12) != EtherType::VLAN.0 {
        return Err(ParseError::Malformed {
            what: "vlan-decap",
            reason: "outer ethertype is not 0x8100",
        });
    }
    frame.copy_within(16..len, 12);
    Ok(len - VLAN_TAG_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ether::EtherHeader;
    use crate::MacAddr;

    fn frame() -> (Vec<u8>, usize) {
        let mut buf = vec![0u8; 128];
        EtherHeader {
            dst: MacAddr([1; 6]),
            src: MacAddr([2; 6]),
            ethertype: EtherType::IPV4,
        }
        .write(&mut buf);
        for (i, b) in buf[14..64].iter_mut().enumerate() {
            *b = i as u8;
        }
        (buf, 64)
    }

    #[test]
    fn tci_round_trip() {
        let t = VlanTag {
            pcp: 5,
            dei: true,
            vid: 0x123,
            inner_type: EtherType::IPV4,
        };
        assert_eq!(VlanTag::from_tci(t.tci(), EtherType::IPV4), t);
    }

    #[test]
    fn encap_then_parse() {
        let (mut buf, len) = frame();
        let tag = VlanTag {
            pcp: 3,
            dei: false,
            vid: 100,
            inner_type: EtherType::IPV4,
        };
        let new_len = encap_in_place(&mut buf, len, tag).unwrap();
        assert_eq!(new_len, len + 4);
        let parsed = VlanTag::parse_frame(&buf).unwrap();
        assert_eq!(parsed.vid, 100);
        assert_eq!(parsed.pcp, 3);
        assert_eq!(parsed.inner_type, EtherType::IPV4);
    }

    #[test]
    fn encap_decap_restores_frame() {
        let (mut buf, len) = frame();
        let original = buf[..len].to_vec();
        let tag = VlanTag {
            pcp: 0,
            dei: false,
            vid: 42,
            inner_type: EtherType::IPV4,
        };
        let tagged_len = encap_in_place(&mut buf, len, tag).unwrap();
        let restored_len = decap_in_place(&mut buf, tagged_len).unwrap();
        assert_eq!(restored_len, len);
        assert_eq!(&buf[..len], &original[..]);
    }

    #[test]
    fn payload_preserved_after_encap() {
        let (mut buf, len) = frame();
        let payload = buf[14..len].to_vec();
        let tag = VlanTag {
            pcp: 0,
            dei: false,
            vid: 7,
            inner_type: EtherType::IPV4,
        };
        let new_len = encap_in_place(&mut buf, len, tag).unwrap();
        assert_eq!(&buf[18..new_len], &payload[..]);
    }

    #[test]
    fn parse_untagged_fails() {
        let (buf, _) = frame();
        assert!(VlanTag::parse_frame(&buf).is_err());
    }

    #[test]
    fn decap_untagged_is_an_error() {
        let (mut buf, len) = frame();
        let before = buf.clone();
        assert!(matches!(
            decap_in_place(&mut buf, len),
            Err(ParseError::Malformed {
                what: "vlan-decap",
                ..
            })
        ));
        assert_eq!(buf, before, "failed decap must not mutate the frame");
    }

    #[test]
    fn short_frames_are_errors_not_panics() {
        // Wire truncation can cut a frame anywhere; both directions must
        // report instead of panicking, and leave the bytes untouched.
        for short in 0..18 {
            let (mut buf, _) = frame();
            buf.truncate(short);
            let before = buf.clone();
            if short < 14 {
                assert!(
                    encap_in_place(&mut buf, short, VlanTag::from_tci(0, EtherType::IPV4)).is_err()
                );
            }
            assert!(decap_in_place(&mut buf, short).is_err());
            assert_eq!(buf, before);
        }
    }

    #[test]
    fn encap_without_capacity_is_an_error() {
        let (mut buf, len) = frame();
        buf.truncate(len); // no headroom for the 4-byte tag
        assert!(matches!(
            encap_in_place(&mut buf, len, VlanTag::from_tci(0, EtherType::IPV4)),
            Err(ParseError::Malformed {
                what: "vlan-encap",
                ..
            })
        ));
    }
}
