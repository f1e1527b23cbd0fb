//! Packet construction for traffic synthesis and tests.
//!
//! [`PacketBuilder`] assembles complete, checksum-valid Ethernet frames
//! carrying TCP, UDP, ICMP, or ARP — the packet kinds the paper's campus
//! trace contains and its NFs (router, IDS, NAT) act on.

use crate::checksum::{fold, pseudo_header_sum, sum_fill, sum_words};
use crate::ether::{EtherHeader, EtherType, ETHER_LEN};
use crate::icmp::{IcmpHeader, IcmpType, ICMP_LEN};
use crate::ipv4::{IpProto, Ipv4Header, IPV4_MIN_LEN};
use crate::tcp::{TcpFlags, TcpHeader, TCP_MIN_LEN};
use crate::udp::{UdpHeader, UDP_LEN};
use crate::{arp::ArpOp, arp::ArpPacket, put16, MacAddr};

/// Which transport the builder should emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Tcp,
    Udp,
    Icmp,
    Arp,
}

/// A fluent builder for complete Ethernet frames.
///
/// Defaults: MACs `02:00:00:00:00:01 → 02:00:00:00:00:02`,
/// IPs `10.0.0.1 → 10.0.0.2`, ports `1000 → 2000`, TTL 64, empty payload.
/// Transport and IP checksums are computed for you.
///
/// # Examples
///
/// ```
/// use pm_packet::builder::PacketBuilder;
///
/// let frame = PacketBuilder::tcp()
///     .src_ip([10, 1, 0, 5])
///     .dst_ip([93, 184, 216, 34])
///     .dst_port(80)
///     .syn()
///     .no_padding()
///     .build();
/// assert_eq!(frame.len(), 14 + 20 + 20); // eth + ip + tcp, no payload
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    kind: Kind,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    flags: u8,
    seq: u32,
    payload_len: usize,
    payload_byte: u8,
    min_frame: usize,
}

impl PacketBuilder {
    fn new(kind: Kind) -> Self {
        PacketBuilder {
            kind,
            src_mac: MacAddr([0x02, 0, 0, 0, 0, 0x01]),
            dst_mac: MacAddr([0x02, 0, 0, 0, 0, 0x02]),
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 0, 2],
            src_port: 1000,
            dst_port: 2000,
            ttl: 64,
            flags: TcpFlags::ACK,
            seq: 1,
            payload_len: 0,
            payload_byte: 0xA5,
            min_frame: 60, // minimum Ethernet payload padding (without FCS)
        }
    }

    /// Starts a TCP packet.
    pub fn tcp() -> Self {
        Self::new(Kind::Tcp)
    }

    /// Starts a UDP packet.
    pub fn udp() -> Self {
        Self::new(Kind::Udp)
    }

    /// Starts an ICMP echo-request packet.
    pub fn icmp() -> Self {
        Self::new(Kind::Icmp)
    }

    /// Starts an ARP who-has request.
    pub fn arp() -> Self {
        Self::new(Kind::Arp)
    }

    /// Sets the source MAC.
    pub fn src_mac(mut self, m: impl Into<MacAddr>) -> Self {
        self.src_mac = m.into();
        self
    }

    /// Sets the destination MAC.
    pub fn dst_mac(mut self, m: impl Into<MacAddr>) -> Self {
        self.dst_mac = m.into();
        self
    }

    /// Sets the source IPv4 address.
    pub fn src_ip(mut self, ip: [u8; 4]) -> Self {
        self.src_ip = ip;
        self
    }

    /// Sets the destination IPv4 address.
    pub fn dst_ip(mut self, ip: [u8; 4]) -> Self {
        self.dst_ip = ip;
        self
    }

    /// Sets the source port (TCP/UDP).
    pub fn src_port(mut self, p: u16) -> Self {
        self.src_port = p;
        self
    }

    /// Sets the destination port (TCP/UDP).
    pub fn dst_port(mut self, p: u16) -> Self {
        self.dst_port = p;
        self
    }

    /// Sets the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets raw TCP flags.
    pub fn tcp_flags(mut self, flags: u8) -> Self {
        self.flags = flags;
        self
    }

    /// Shorthand: SYN-only flags.
    pub fn syn(self) -> Self {
        self.tcp_flags(TcpFlags::SYN)
    }

    /// Sets the TCP sequence number.
    pub fn seq(mut self, seq: u32) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the transport payload length (filled with a repeating byte).
    pub fn payload_len(mut self, len: usize) -> Self {
        self.payload_len = len;
        self
    }

    /// Sets the payload fill byte.
    pub fn payload_byte(mut self, b: u8) -> Self {
        self.payload_byte = b;
        self
    }

    /// Disables minimum-frame padding (allows frames below 60 bytes).
    pub fn no_padding(mut self) -> Self {
        self.min_frame = 0;
        self
    }

    /// Sets the payload length so the *total frame* is exactly
    /// `frame_len` bytes (useful for the fixed-size sweeps, Figs. 6/11).
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` is too small to hold the headers.
    pub fn frame_len(mut self, frame_len: usize) -> Self {
        let headers = self.header_len();
        assert!(
            frame_len >= headers,
            "frame_len {frame_len} < header bytes {headers}"
        );
        self.payload_len = frame_len - headers;
        self.min_frame = 0;
        self
    }

    /// Bytes of Ethernet, network and transport header.
    fn header_len(&self) -> usize {
        ETHER_LEN
            + match self.kind {
                Kind::Tcp => IPV4_MIN_LEN + TCP_MIN_LEN,
                Kind::Udp => IPV4_MIN_LEN + UDP_LEN,
                Kind::Icmp => IPV4_MIN_LEN + ICMP_LEN,
                Kind::Arp => crate::arp::ARP_LEN,
            }
    }

    /// Builds the frame.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let (fill, len) = self.build_head(&mut out);
        out.resize(len, fill);
        out
    }

    /// Appends the frame's head to `out` and returns `(fill, len)`: the
    /// frame is the head followed by `fill` repeated up to `len` bytes in
    /// all. The head is the headers, with the payload in the fill run,
    /// so no payload byte is written and the L4 checksum sums the run in
    /// closed form ([`sum_fill`]). A payload that min-frame padding
    /// follows is not one run with it: it stays in the head, and the run
    /// is the zero padding.
    pub fn build_head(&self, out: &mut Vec<u8>) -> (u8, usize) {
        // ARP's padding-to-length is zeros, not the payload byte.
        let payload_byte = match self.kind {
            Kind::Arp => 0,
            _ => self.payload_byte,
        };
        let headers = self.header_len();
        let unpadded = headers + self.payload_len;
        let (head_len, fill, run) = if unpadded < self.min_frame {
            (unpadded, 0, 0)
        } else {
            (headers, payload_byte, self.payload_len)
        };
        let start = out.len();
        out.resize(start + headers, 0);
        out.resize(start + head_len, payload_byte);
        let head = &mut out[start..];
        match self.kind {
            Kind::Arp => self.write_arp(head),
            Kind::Tcp | Kind::Udp | Kind::Icmp => self.write_ip(head, run),
        }
        (fill, unpadded.max(self.min_frame))
    }

    fn write_arp(&self, b: &mut [u8]) {
        EtherHeader {
            dst: MacAddr::BROADCAST,
            src: self.src_mac,
            ethertype: EtherType::ARP,
        }
        .write(b);
        ArpPacket {
            op: ArpOp::Request,
            sender_mac: self.src_mac,
            sender_ip: self.src_ip,
            target_mac: MacAddr::ZERO,
            target_ip: self.dst_ip,
        }
        .write(&mut b[ETHER_LEN..]);
    }

    /// Writes the headers to the front of `b` (which holds them plus any
    /// payload kept in the head); `run` payload bytes of `payload_byte`
    /// follow `b` in the frame.
    fn write_ip(&self, b: &mut [u8], run: usize) {
        let (proto, tl_len) = match self.kind {
            Kind::Tcp => (IpProto::TCP, TCP_MIN_LEN),
            Kind::Udp => (IpProto::UDP, UDP_LEN),
            Kind::Icmp => (IpProto::ICMP, ICMP_LEN),
            Kind::Arp => unreachable!(),
        };
        let transport_len = tl_len + self.payload_len;
        let total_len = IPV4_MIN_LEN + transport_len;
        EtherHeader {
            dst: self.dst_mac,
            src: self.src_mac,
            ethertype: EtherType::IPV4,
        }
        .write(b);
        Ipv4Header {
            header_len: IPV4_MIN_LEN,
            dscp_ecn: 0,
            total_len: total_len as u16,
            ident: (self.seq & 0xffff) as u16,
            flags_frag: 0x4000,
            ttl: self.ttl,
            protocol: proto,
            checksum: 0,
            src: self.src_ip,
            dst: self.dst_ip,
        }
        .write(&mut b[ETHER_LEN..]);

        let t = ETHER_LEN + IPV4_MIN_LEN;
        let l4_sum = |b: &[u8], proto: u8| {
            let acc = pseudo_header_sum(self.src_ip, self.dst_ip, proto, transport_len as u16);
            !fold(sum_fill(self.payload_byte, run, sum_words(&b[t..], acc)))
        };
        match self.kind {
            Kind::Tcp => {
                TcpHeader {
                    src_port: self.src_port,
                    dst_port: self.dst_port,
                    seq: self.seq,
                    ack: 0,
                    header_len: TCP_MIN_LEN,
                    flags: TcpFlags(self.flags),
                    window: 65535,
                    checksum: 0,
                }
                .write(&mut b[t..]);
                let c = l4_sum(b, 6);
                put16(b, t + crate::tcp::CHECKSUM_OFFSET, c);
            }
            Kind::Udp => {
                UdpHeader {
                    src_port: self.src_port,
                    dst_port: self.dst_port,
                    length: transport_len as u16,
                    checksum: 0,
                }
                .write(&mut b[t..]);
                let mut c = l4_sum(b, 17);
                if c == 0 {
                    c = 0xffff; // RFC 768: zero means "no checksum"
                }
                put16(b, t + 6, c);
            }
            Kind::Icmp => {
                IcmpHeader {
                    icmp_type: IcmpType::ECHO_REQUEST,
                    code: 0,
                    checksum: 0,
                    rest: self.seq,
                }
                .write(&mut b[t..], self.payload_byte, run);
            }
            Kind::Arp => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::checksum;

    #[test]
    fn tcp_packet_valid() {
        let b = PacketBuilder::tcp().payload_len(10).build();
        let ip = Ipv4Header::parse(&b[14..]).unwrap();
        assert!(ip.verify_checksum(&b[14..]));
        assert_eq!(ip.protocol, IpProto::TCP);
        assert_eq!(ip.total_len as usize, 20 + 20 + 10);
        let tcp = TcpHeader::parse(&b[34..]).unwrap();
        assert_eq!(tcp.src_port, 1000);

        // Verify the TCP checksum over pseudo-header + segment.
        let seg = &b[34..34 + 30];
        let acc = pseudo_header_sum(ip.src, ip.dst, 6, 30);
        assert_eq!(fold(sum_words(seg, acc)), 0xffff);
    }

    #[test]
    fn udp_packet_valid() {
        let b = PacketBuilder::udp().payload_len(5).build();
        let ip = Ipv4Header::parse(&b[14..]).unwrap();
        assert_eq!(ip.protocol, IpProto::UDP);
        let seg_len = 8 + 5;
        let acc = pseudo_header_sum(ip.src, ip.dst, 17, seg_len as u16);
        assert_eq!(fold(sum_words(&b[34..34 + seg_len], acc)), 0xffff);
    }

    #[test]
    fn icmp_packet_valid() {
        let b = PacketBuilder::icmp().payload_len(12).build();
        let ip = Ipv4Header::parse(&b[14..]).unwrap();
        assert_eq!(ip.protocol, IpProto::ICMP);
        // ICMP checksum covers the whole message; summing it yields ffff.
        assert_eq!(checksum(&b[34..34 + 8 + 12]), 0);
    }

    #[test]
    fn arp_packet_parses() {
        let b = PacketBuilder::arp().build();
        let eth = EtherHeader::parse(&b).unwrap();
        assert_eq!(eth.ethertype, EtherType::ARP);
        let arp = ArpPacket::parse(&b[14..]).unwrap();
        assert_eq!(arp.op, ArpOp::Request);
    }

    #[test]
    fn frame_len_exact() {
        for size in [64usize, 128, 512, 1024, 1500] {
            let b = PacketBuilder::udp().frame_len(size).build();
            assert_eq!(b.len(), size, "requested {size}");
            let ip = Ipv4Header::parse(&b[14..]).unwrap();
            assert!(ip.verify_checksum(&b[14..]));
        }
    }

    #[test]
    fn min_frame_padding() {
        let b = PacketBuilder::udp().build(); // 14+20+8 = 42 < 60
        assert_eq!(b.len(), 60);
        // But the IP total length reflects the unpadded datagram.
        let ip = Ipv4Header::parse(&b[14..]).unwrap();
        assert_eq!(ip.total_len, 28);
    }

    #[test]
    #[should_panic(expected = "frame_len")]
    fn frame_len_too_small_panics() {
        let _ = PacketBuilder::tcp().frame_len(40);
    }
}
