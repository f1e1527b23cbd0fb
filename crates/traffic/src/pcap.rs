//! Minimal libpcap-format reader/writer (no dependencies).
//!
//! The paper's campus trace cannot be shipped, but *your* traces can:
//! this module loads standard `.pcap` capture files into a [`Trace`] for
//! replay through the simulated testbed, and saves synthesized traces as
//! `.pcap` for inspection with standard tools (tcpdump/wireshark).
//!
//! Supports the classic pcap format (magic `0xa1b2c3d4` / `0xd4c3b2a1`,
//! microsecond or nanosecond variants, Ethernet link type), both byte
//! orders. Pcapng is out of scope.

use crate::synth::Trace;
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Classic pcap magic (microsecond timestamps, writer's native order).
const MAGIC_USEC: u32 = 0xa1b2_c3d4;
/// Nanosecond-timestamp variant.
const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;

/// Errors loading or saving pcap files.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a classic pcap file, or an unsupported variant.
    Format(String),
}

impl fmt::Display for PcapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap i/o error: {e}"),
            PcapError::Format(m) => write!(f, "pcap format error: {m}"),
        }
    }
}

impl Error for PcapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PcapError::Io(e) => Some(e),
            PcapError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for PcapError {
    fn from(e: std::io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Maximum frame length accepted when loading (larger records are
/// skipped — jumbo frames don't fit the simulator's 2-KiB buffers).
pub const MAX_FRAME: usize = 2048;

/// Reads a classic pcap file into frames.
///
/// Frames longer than [`MAX_FRAME`] or truncated captures
/// (`incl_len < orig_len`) are skipped; the skip count is returned with
/// the frames.
pub fn read_pcap(path: &Path) -> Result<(Vec<Vec<u8>>, usize), PcapError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut hdr = [0u8; 24];
    r.read_exact(&mut hdr)?;

    let magic_le = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let magic_be = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    let little = match (magic_le, magic_be) {
        (MAGIC_USEC | MAGIC_NSEC, _) => true,
        (_, MAGIC_USEC | MAGIC_NSEC) => false,
        _ => {
            return Err(PcapError::Format(format!(
                "bad magic {magic_le:#010x} (not classic pcap)"
            )))
        }
    };
    let u32_at = |b: &[u8], off: usize| {
        let w = [b[off], b[off + 1], b[off + 2], b[off + 3]];
        if little {
            u32::from_le_bytes(w)
        } else {
            u32::from_be_bytes(w)
        }
    };
    let linktype = u32_at(&hdr, 20);
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::Format(format!(
            "unsupported link type {linktype} (need Ethernet = 1)"
        )));
    }

    let mut frames = Vec::new();
    let mut skipped = 0usize;
    loop {
        let mut rec = [0u8; 16];
        match r.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let incl = u32_at(&rec, 8) as usize;
        let orig = u32_at(&rec, 12) as usize;
        let mut data = vec![0u8; incl];
        r.read_exact(&mut data)?;
        if incl != orig || !(14..=MAX_FRAME).contains(&incl) {
            skipped += 1;
            continue;
        }
        frames.push(data);
    }
    Ok((frames, skipped))
}

/// Writes frames as a classic little-endian microsecond pcap, spacing
/// timestamps by `gap_us` microseconds.
pub fn write_pcap(path: &Path, frames: &[&[u8]], gap_us: u32) -> Result<(), PcapError> {
    let mut w = BufWriter::new(File::create(path)?);
    // Global header.
    w.write_all(&MAGIC_USEC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&(MAX_FRAME as u32).to_le_bytes())?; // snaplen
    w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;

    let mut ts_sec = 0u32;
    let mut ts_usec = 0u32;
    for f in frames {
        w.write_all(&ts_sec.to_le_bytes())?;
        w.write_all(&ts_usec.to_le_bytes())?;
        w.write_all(&(f.len() as u32).to_le_bytes())?;
        w.write_all(&(f.len() as u32).to_le_bytes())?;
        w.write_all(f)?;
        ts_usec += gap_us;
        if ts_usec >= 1_000_000 {
            ts_sec += ts_usec / 1_000_000;
            ts_usec %= 1_000_000;
        }
    }
    w.flush()?;
    Ok(())
}

impl Trace {
    /// Loads a trace from a classic pcap capture file.
    ///
    /// Over-long or truncated records are silently skipped (they would
    /// not fit the simulated NIC's buffers anyway).
    pub fn from_pcap(path: &Path) -> Result<Trace, PcapError> {
        let (frames, _skipped) = read_pcap(path)?;
        if frames.is_empty() {
            return Err(PcapError::Format("capture holds no usable frames".into()));
        }
        Ok(Trace::from_frames(frames))
    }

    /// Saves the trace as a classic pcap file (microsecond timestamps,
    /// 1-µs spacing — the timing is cosmetic; replay paces by offered
    /// load).
    pub fn to_pcap(&self, path: &Path) -> Result<(), PcapError> {
        let frames: Vec<Vec<u8>> = (0..self.len())
            .map(|i| {
                let mut f = vec![0; self.frame_len(i)];
                self.copy_frame(i, &mut f);
                f
            })
            .collect();
        let frames: Vec<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        write_pcap(path, &frames, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{TraceConfig, TrafficProfile};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pm_pcap_test_{name}_{}.pcap", std::process::id()));
        p
    }

    #[test]
    fn round_trip_synthesized_trace() {
        let t = Trace::synthesize(&TraceConfig {
            packets: 200,
            ..TraceConfig::default()
        });
        let path = tmp("round_trip");
        t.to_pcap(&path).unwrap();
        let t2 = Trace::from_pcap(&path).unwrap();
        assert_eq!(t.len(), t2.len());
        for i in 0..t.len() {
            assert_eq!(t.frame(i), t2.frame(i), "frame {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn big_endian_capture_readable() {
        // Hand-build a big-endian pcap with one 60-byte frame.
        let path = tmp("big_endian");
        let mut bytes = Vec::new();
        bytes.extend(MAGIC_USEC.to_be_bytes());
        bytes.extend(2u16.to_be_bytes());
        bytes.extend(4u16.to_be_bytes());
        bytes.extend(0u32.to_be_bytes());
        bytes.extend(0u32.to_be_bytes());
        bytes.extend(65535u32.to_be_bytes());
        bytes.extend(LINKTYPE_ETHERNET.to_be_bytes());
        bytes.extend(0u32.to_be_bytes()); // ts_sec
        bytes.extend(0u32.to_be_bytes()); // ts_usec
        bytes.extend(60u32.to_be_bytes()); // incl
        bytes.extend(60u32.to_be_bytes()); // orig
        bytes.extend(std::iter::repeat_n(0xAB, 60));
        std::fs::write(&path, &bytes).unwrap();

        let (frames, skipped) = read_pcap(&path).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(skipped, 0);
        assert_eq!(frames[0].len(), 60);
        assert!(frames[0].iter().all(|&b| b == 0xAB));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_records_skipped() {
        let path = tmp("truncated");
        let mut bytes = Vec::new();
        bytes.extend(MAGIC_USEC.to_le_bytes());
        bytes.extend(2u16.to_le_bytes());
        bytes.extend(4u16.to_le_bytes());
        bytes.extend([0u8; 8]);
        bytes.extend(96u32.to_le_bytes());
        bytes.extend(LINKTYPE_ETHERNET.to_le_bytes());
        // Record captured short: incl 96 < orig 1500.
        bytes.extend([0u8; 8]);
        bytes.extend(96u32.to_le_bytes());
        bytes.extend(1500u32.to_le_bytes());
        bytes.extend(std::iter::repeat_n(0u8, 96));
        // A good record.
        bytes.extend([0u8; 8]);
        bytes.extend(64u32.to_le_bytes());
        bytes.extend(64u32.to_le_bytes());
        bytes.extend(std::iter::repeat_n(1u8, 64));
        std::fs::write(&path, &bytes).unwrap();

        let (frames, skipped) = read_pcap(&path).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(skipped, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_pcap() {
        let path = tmp("not_pcap");
        std::fs::write(&path, b"definitely not a capture file....").unwrap();
        let err = read_pcap(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_ethernet() {
        let path = tmp("linktype");
        let mut bytes = Vec::new();
        bytes.extend(MAGIC_USEC.to_le_bytes());
        bytes.extend([0u8; 16]);
        bytes.extend(101u32.to_le_bytes()); // LINKTYPE_RAW
        std::fs::write(&path, &bytes).unwrap();
        let err = read_pcap(&path).unwrap_err();
        assert!(err.to_string().contains("link type"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fixed_size_trace_survives_pcap() {
        let t = Trace::synthesize(&TraceConfig {
            packets: 64,
            profile: TrafficProfile::FixedSize(512),
            ..TraceConfig::default()
        });
        let path = tmp("fixed");
        t.to_pcap(&path).unwrap();
        let t2 = Trace::from_pcap(&path).unwrap();
        assert_eq!(t2.mean_frame_len(), 512.0);
        std::fs::remove_file(&path).ok();
    }
}
