//! Internet checksum (RFC 1071) and incremental update (RFC 1624).
//!
//! The router element recomputes the IPv4 header checksum after
//! decrementing the TTL; doing that *incrementally* (RFC 1624) instead of
//! re-summing the header is one of the per-packet savings real fast-path
//! routers rely on, so both forms are provided and property-tested against
//! each other.

/// Computes the ones-complement Internet checksum over `data`.
///
/// Returns the checksum in host byte order, ready to be stored in
/// big-endian byte order.
///
/// # Examples
///
/// ```
/// // RFC 1071 example data.
/// let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
/// let sum = pm_packet::checksum::checksum(&data);
/// assert_eq!(sum, !0xddf2u16);
/// ```
pub fn checksum(data: &[u8]) -> u16 {
    !fold(sum_words(data, 0))
}

/// Computes the checksum over `data` with one 16-bit word (at byte offset
/// `skip`) treated as zero — used to compute a header checksum while the
/// checksum field itself is still in place.
pub fn checksum_skipping(data: &[u8], skip: usize) -> u16 {
    let raw = sum_words(data, 0);
    let field = u32::from(crate::be16(data, skip));
    // Subtract the field's contribution in ones-complement arithmetic.
    let adjusted = raw + 0xffff - field;
    !fold(adjusted)
}

/// Accumulates the 16-bit ones-complement sum of `data` onto `acc`.
///
/// Odd trailing bytes are padded with zero, per RFC 1071.
pub fn sum_words(data: &[u8], mut acc: u32) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        acc += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Accumulates the sum of `n` bytes all equal to `byte` onto `acc`, in
/// closed form: the same `u32` that [`sum_words`] returns for
/// `&vec![byte; n]` (neither overflows below 2 000 bytes), without a
/// byte in memory. The run must start at an even offset of the summed
/// data, as a payload after a TCP/UDP/ICMP header does.
pub fn sum_fill(byte: u8, n: usize, acc: u32) -> u32 {
    let word = u32::from(byte) * 257;
    let odd = if n % 2 == 1 { u32::from(byte) << 8 } else { 0 };
    acc + (n / 2) as u32 * word + odd
}

/// Folds a 32-bit accumulator into 16 bits (ones-complement).
pub fn fold(mut acc: u32) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u16
}

/// Incrementally updates checksum `old_sum` when a 16-bit field changes
/// from `old` to `new` (RFC 1624, eqn. 3: `HC' = ~(~HC + ~m + m')`).
///
/// # Examples
///
/// ```
/// use pm_packet::checksum::{checksum, update16};
///
/// let mut data = [0x45u8, 0x00, 0x00, 0x54, 0xa6, 0xf2];
/// let before = checksum(&data);
/// let old = u16::from_be_bytes([data[4], data[5]]);
/// data[4] = 0x12; data[5] = 0x34;
/// let after_incremental = update16(before, old, 0x1234);
/// assert_eq!(after_incremental, checksum(&data));
/// ```
pub fn update16(old_sum: u16, old: u16, new: u16) -> u16 {
    let acc = u32::from(!old_sum) + u32::from(!old) + u32::from(new);
    !fold(acc)
}

/// Incrementally updates checksum `old_sum` for a 32-bit field change
/// (e.g., rewriting an IPv4 address during NAT).
pub fn update32(old_sum: u16, old: u32, new: u32) -> u16 {
    let s = update16(old_sum, (old >> 16) as u16, (new >> 16) as u16);
    update16(s, old as u16, new as u16)
}

/// Computes the TCP/UDP pseudo-header sum for IPv4 (RFC 768/793).
///
/// Feed the result as the initial accumulator to [`sum_words`] over the
/// transport header + payload.
pub fn pseudo_header_sum(src: [u8; 4], dst: [u8; 4], proto: u8, len: u16) -> u32 {
    let mut acc = 0u32;
    acc = sum_words(&src, acc);
    acc = sum_words(&dst, acc);
    acc += u32::from(proto);
    acc += u32::from(len);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // From RFC 1071 §3: bytes 00 01 f2 03 f4 f5 f6 f7 sum to ddf2.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(sum_words(&data, 0)), 0xddf2);
    }

    #[test]
    fn odd_length_padded() {
        let even = [0xabu8, 0xcd, 0x12, 0x00];
        let odd = [0xabu8, 0xcd, 0x12];
        assert_eq!(checksum(&even), checksum(&odd));
    }

    #[test]
    fn checksum_of_zeros_is_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn verify_by_reinsertion() {
        // A buffer whose checksum field (bytes 2..4) is filled with the
        // computed checksum must sum to 0xffff overall (i.e., fold == 0xffff
        // pre-complement, so checksum() == 0).
        let mut data = [0x45u8, 0x00, 0x00, 0x00, 0x40, 0x11, 0x00, 0x00];
        let c = checksum_skipping(&data, 2);
        crate::put16(&mut data, 2, c);
        assert_eq!(checksum(&data), 0);
    }

    #[test]
    fn incremental16_matches_recompute() {
        let mut data = [0x45u8, 0x00, 0x01, 0x90, 0x33, 0x44, 0x55, 0x66];
        let before = checksum(&data);
        let old = crate::be16(&data, 6);
        crate::put16(&mut data, 6, 0xBEEF);
        assert_eq!(update16(before, old, 0xBEEF), checksum(&data));
    }

    #[test]
    fn incremental32_matches_recompute() {
        let mut data = [0u8; 20];
        data[0] = 0x45;
        data[12] = 10;
        data[15] = 7; // src ip 10.0.0.7
        let before = checksum(&data);
        let old = crate::be32(&data, 12);
        crate::put32(&mut data, 12, 0xC0A8_0105); // 192.168.1.5
        assert_eq!(update32(before, old, 0xC0A8_0105), checksum(&data));
    }

    #[test]
    fn ttl_decrement_incremental() {
        // The classic router fast path: TTL lives in the high byte of the
        // 16-bit word at offset 8 of the IPv4 header.
        let mut hdr = [
            0x45u8, 0x00, 0x00, 0x54, 0x12, 0x34, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0x0a, 0x00,
            0x00, 0x01, 0x0a, 0x00, 0x00, 0x02,
        ];
        let c = checksum_skipping(&hdr, 10);
        crate::put16(&mut hdr, 10, c);
        assert_eq!(checksum(&hdr), 0);

        let old_word = crate::be16(&hdr, 8);
        hdr[8] -= 1; // TTL 64 -> 63
        let new_word = crate::be16(&hdr, 8);
        let updated = update16(crate::be16(&hdr, 10), old_word, new_word);
        crate::put16(&mut hdr, 10, updated);
        assert_eq!(checksum(&hdr), 0, "header must still verify");
    }

    #[test]
    fn pseudo_header_contribution() {
        let acc = pseudo_header_sum([10, 0, 0, 1], [10, 0, 0, 2], 17, 8);
        // Manually: 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 17 + 8
        assert_eq!(acc, 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 17 + 8);
    }
}
