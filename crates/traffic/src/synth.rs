//! Trace synthesis and the wire pacing rule.

use crate::workload::{FramePlan, Workload, WorkloadSpec, WorkloadStats};
use crate::zipf::Zipf;
use pm_nic::Toeplitz;
use pm_packet::builder::PacketBuilder;
use pm_sim::{round_to_u64, SimTime, SplitMix64};
use std::cell::Cell;
use std::sync::{Arc, Mutex, OnceLock};

/// What kind of traffic to synthesize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficProfile {
    /// Campus-like mixture: mean frame ≈ 981 B, Zipf flows,
    /// TCP/UDP/ICMP/ARP mix.
    CampusMix,
    /// All frames exactly this many bytes (UDP flows).
    FixedSize(usize),
}

/// Trace-synthesis parameters.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of distinct frames to synthesize (the engine replays the
    /// trace cyclically, like the paper replays its trace 25×).
    pub packets: usize,
    /// Number of distinct flows.
    pub flows: usize,
    /// Zipf popularity exponent across flows (0 = uniform). Campus
    /// aggregates measure ≈ 0.8.
    pub zipf_alpha: f64,
    /// Traffic profile.
    pub profile: TrafficProfile,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            packets: 8192,
            flows: 4096,
            zipf_alpha: 0.8,
            profile: TrafficProfile::CampusMix,
            seed: 0xCAFE,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Flow {
    src_ip: [u8; 4],
    dst_ip: [u8; 4],
    src_port: u16,
    dst_port: u16,
    proto: FlowProto,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowProto {
    Tcp,
    Udp,
    Icmp,
}

/// A synthesized trace of complete Ethernet frames.
///
/// The trace is the only place packet bytes live: the NIC model moves
/// none, and the engine copies a packet's bytes out with
/// [`Self::copy_frame`] just before processing it. A frame is stored as
/// its header bytes plus a fill run (see `Frames`). Frames are shared
/// behind an [`Arc`], so cloning a trace (one clone per engine build) is
/// O(1). What is derived from the frames — the per-frame RSS hashes, the
/// workload accounting — is shared the same way, so every run that
/// replays a cached trace reads values computed once.
#[derive(Debug, Clone)]
pub struct Trace {
    frames: Arc<Frames>,
    /// [`Workload::stats`] over the whole trace, for a trace built by
    /// [`Trace::from_workload`].
    workload_stats: Option<WorkloadStats>,
    /// Per-frame RSS hashes, one entry per Toeplitz key asked for
    /// (newest last, at most [`HASH_MEMO_CAP`]).
    hash_memos: Arc<Mutex<HashMemos>>,
}

type HashMemos = Vec<([u8; 40], Arc<[u32]>)>;

/// A trace's frames, each its head bytes followed by a run of one fill
/// byte: the heads back to back in one buffer, and one index entry per
/// frame. A synthesized frame's head is its headers and the run its
/// constant payload, so the buffer holds ≈ 54 B per frame instead of
/// ≈ 1 KB; a captured frame is all head, with an empty run.
///
/// A head holds every header byte of its frame, or is the whole frame,
/// so anything that reads only headers — [`Trace::frame_hashes`] —
/// reads the head and never the run.
///
/// One allocation per trace, not one per frame: thousands of small
/// blocks are what glibc trims and faults back in between a sweep's
/// set-up passes once no large block is freed (DESIGN.md §10, "Keep the
/// trace one buffer").
#[derive(Debug, Default)]
struct Frames {
    heads: Vec<u8>,
    index: Vec<FrameEntry>,
    /// Σ frame lengths.
    total_len: usize,
    /// Every frame written out in full, built by the first
    /// [`Trace::frame`] call.
    image: OnceLock<Image>,
}

#[derive(Debug, Clone, Copy)]
struct FrameEntry {
    /// One past the head's last byte in `Frames::heads`.
    head_end: usize,
    /// Frame length: the head plus the fill run.
    len: u32,
    fill: u8,
}

/// Whole frames back to back, and where each ends.
#[derive(Debug)]
struct Image {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

/// Head bytes reserved per frame: a TCP frame's headers are 54 B, so a
/// synthesized trace's buffer is allocated once.
const HEAD_RESERVE: usize = 64;

impl Frames {
    fn with_capacity(frames: usize, head_bytes: usize) -> Frames {
        Frames {
            heads: Vec::with_capacity(head_bytes),
            index: Vec::with_capacity(frames),
            ..Frames::default()
        }
    }

    /// Appends one frame: `build` appends its head to the buffer and
    /// returns `(fill, len)`, as [`PacketBuilder::build_head`] does.
    fn push(&mut self, build: impl FnOnce(&mut Vec<u8>) -> (u8, usize)) {
        let start = self.heads.len();
        let (fill, len) = build(&mut self.heads);
        assert!(self.heads.len() - start <= len, "head longer than frame");
        self.index.push(FrameEntry {
            head_end: self.heads.len(),
            len: u32::try_from(len).expect("frame under 4 GiB"),
            fill,
        });
        self.total_len += len;
    }

    fn head(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |p| self.index[p].head_end);
        &self.heads[start..self.index[i].head_end]
    }

    fn copy(&self, i: usize, out: &mut [u8]) -> usize {
        let head = self.head(i);
        let FrameEntry { len, fill, .. } = self.index[i];
        let len = len as usize;
        out[..head.len()].copy_from_slice(head);
        out[head.len()..len].fill(fill);
        len
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

/// Keys one trace keeps hash memos for. Every NIC of the simulator is
/// programmed with one key today; four leaves room for a sweep over
/// keys while bounding a trace's derived data at 16 B per frame.
const HASH_MEMO_CAP: usize = 4;

/// How often the calling thread found a seed-determined input already
/// built, and how often it had to build it (see [`cache_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Cached-trace requests that synthesized the trace.
    pub traces_built: u64,
    /// Cached-trace requests served from the process-wide cache.
    pub traces_reused: u64,
    /// [`Trace::frame_hashes`] calls that hashed every frame.
    pub hash_memos_built: u64,
    /// [`Trace::frame_hashes`] calls served from the trace's memo.
    pub hash_memos_reused: u64,
}

thread_local! {
    static COUNTS: Cell<CacheCounts> = const { Cell::new(CacheCounts {
        traces_built: 0,
        traces_reused: 0,
        hash_memos_built: 0,
        hash_memos_reused: 0,
    }) };
}

/// The calling thread's running totals. Per thread, so a sweep worker
/// that reads them before and after its runs gets exactly its own
/// share, whatever other sweeps the process is running.
pub fn cache_counts() -> CacheCounts {
    COUNTS.with(Cell::get)
}

fn count(bump: impl FnOnce(&mut CacheCounts)) {
    COUNTS.with(|c| {
        let mut v = c.get();
        bump(&mut v);
        c.set(v);
    });
}

/// Destination prefixes the synthesizer draws from; these match the
/// router preset's route table so every packet is routable.
const DST_PREFIXES: [([u8; 2], u8); 4] = [
    ([10, 0], 1),    // 10.0.x.x
    ([10, 200], 1),  // deeper in 10/8
    ([172, 16], 2),  // 172.16/12
    ([192, 168], 3), // 192.168/16
];

impl Trace {
    /// Synthesizes a trace.
    ///
    /// # Panics
    ///
    /// Panics if `packets` or `flows` is zero, or a fixed size is below
    /// 64 bytes.
    pub fn synthesize(cfg: &TraceConfig) -> Trace {
        assert!(cfg.packets > 0, "empty trace");
        assert!(cfg.flows > 0, "no flows");
        if let TrafficProfile::FixedSize(s) = cfg.profile {
            assert!((64..=1500).contains(&s), "fixed size {s} out of 64..=1500");
        }
        let mut rng = SplitMix64::new(cfg.seed);
        let zipf = Zipf::new(cfg.flows, cfg.zipf_alpha);

        // Flow table.
        let flows: Vec<Flow> = (0..cfg.flows)
            .map(|i| {
                let (p, _) = DST_PREFIXES[(rng.next_u64() % 4) as usize];
                let proto = match cfg.profile {
                    TrafficProfile::FixedSize(_) => FlowProto::Udp,
                    TrafficProfile::CampusMix => match rng.next_u64() % 100 {
                        0..=84 => FlowProto::Tcp,
                        85..=96 => FlowProto::Udp,
                        _ => FlowProto::Icmp,
                    },
                };
                Flow {
                    src_ip: [10, 1, (i >> 8) as u8, i as u8],
                    dst_ip: [p[0], p[1], rng.next_u32() as u8, rng.next_u32() as u8],
                    src_port: 1024 + (rng.next_u64() % 60_000) as u16,
                    dst_port: [80u16, 443, 53, 123, 8080][(rng.next_u64() % 5) as usize],
                    proto,
                }
            })
            .collect();

        let mut frames = Frames::with_capacity(cfg.packets, cfg.packets * HEAD_RESERVE);
        for seq in 0..cfg.packets {
            let flow = &flows[zipf.sample(&mut rng)];
            let builder = match cfg.profile {
                TrafficProfile::FixedSize(size) => PacketBuilder::udp()
                    .src_ip(flow.src_ip)
                    .dst_ip(flow.dst_ip)
                    .src_port(flow.src_port)
                    .dst_port(flow.dst_port)
                    .seq(seq as u32)
                    .frame_len(size),
                TrafficProfile::CampusMix => {
                    // Occasional ARP keeps the router's ARP path warm
                    // (≈0.5% of packets).
                    if rng.next_u64().is_multiple_of(200) {
                        PacketBuilder::arp()
                            .src_ip(flow.src_ip)
                            .dst_ip([10, 0, 0, 254])
                    } else {
                        let size = campus_frame_size(&mut rng);
                        let b = match flow.proto {
                            FlowProto::Tcp => PacketBuilder::tcp(),
                            FlowProto::Udp => PacketBuilder::udp(),
                            FlowProto::Icmp => PacketBuilder::icmp(),
                        };
                        b.src_ip(flow.src_ip)
                            .dst_ip(flow.dst_ip)
                            .src_port(flow.src_port)
                            .dst_port(flow.dst_port)
                            .ttl(64)
                            .seq(seq as u32)
                            .frame_len(size)
                    }
                }
            };
            frames.push(|out| builder.build_head(out));
        }
        Trace::new(frames, None)
    }

    fn new(frames: Frames, workload_stats: Option<WorkloadStats>) -> Trace {
        Trace {
            frames: Arc::new(frames),
            workload_stats,
            hash_memos: Arc::default(),
        }
    }

    /// Like [`Self::synthesize`], but memoizes recent results in a
    /// small process-wide cache. Synthesis is deterministic in `cfg`,
    /// so a cached trace is indistinguishable from a fresh one; sweeps
    /// that rebuild an engine per experiment with the same seed (the
    /// common case — every figure shares one default seed) pay for
    /// synthesis once instead of once per run.
    pub fn synthesize_cached(cfg: &TraceConfig) -> Trace {
        cached(TraceKey::of(cfg), || Trace::synthesize(cfg))
    }

    /// Synthesizes a trace from a flow-population [`Workload`]: one
    /// frame per sequence `0..workload.frames()`, each a pure function
    /// of the spec (see `crate::workload`). The trace carries the
    /// workload's accounting over those frames
    /// ([`Self::workload_stats`]): the mix counts fall out of the plan
    /// each frame is built from, the churn counts are analytic.
    pub fn from_workload(w: &Workload) -> Trace {
        let n = w.frames();
        assert!(n > 0, "empty workload trace");
        let mut frames = Frames::with_capacity(n, n * HEAD_RESERVE);
        let mut stats = w.churn(n as u64);
        for seq in 0..n as u64 {
            let plan = w.plan(seq);
            match plan {
                FramePlan::Syn => stats.syn_frames += 1,
                FramePlan::Scan => stats.scan_frames += 1,
                FramePlan::Normal { .. } => stats.normal_frames += 1,
            }
            frames.push(|out| w.builder(seq, plan).build_head(out));
        }
        Trace::new(frames, Some(stats))
    }

    /// Like [`Self::from_workload`], but memoized in the same
    /// process-wide cache as [`Self::synthesize_cached`] (a flow-scale
    /// sweep re-runs the same workload spec for several NF presets and
    /// page modes; the Zipf CDF build, frame synthesis and accounting
    /// are paid once). Keyed by the canonical spec string.
    pub fn from_workload_spec_cached(spec: &WorkloadSpec) -> Trace {
        let key = TraceKey {
            packets: 0,
            flows: 0,
            zipf_alpha_bits: 0,
            fixed_size: None,
            workload: Some(spec.to_spec()),
            seed: spec.seed,
        };
        cached(key, || Trace::from_workload(&Workload::new(spec.clone())))
    }

    /// [`Workload::stats`] over the whole trace — `Some` exactly for
    /// traces built by [`Self::from_workload`] (computed there, once).
    pub fn workload_stats(&self) -> Option<WorkloadStats> {
        self.workload_stats
    }

    /// The RSS hash a device programmed with `rss_key` assigns to each
    /// frame, in frame order. Hashed once per key and kept behind the
    /// trace's [`Arc`]: every later call — from any clone, on any
    /// thread — returns the same allocation.
    pub fn frame_hashes(&self, rss_key: &[u8; 40]) -> Arc<[u32]> {
        // Hashing happens under the lock: a second worker asking for
        // the same memo waits for it instead of hashing it again.
        let mut memos = self.hash_memos.lock().expect("hash memo poisoned");
        if let Some((_, h)) = memos.iter().find(|(k, _)| k == rss_key) {
            count(|c| c.hash_memos_reused += 1);
            return Arc::clone(h);
        }
        // A stored head holds every byte the hash reads (see `Frames`).
        let toeplitz = Toeplitz::with_key(*rss_key);
        let hashes: Arc<[u32]> = (0..self.frames.len())
            .map(|i| toeplitz.hash_frame(self.frames.head(i)))
            .collect();
        if memos.len() >= HASH_MEMO_CAP {
            memos.remove(0);
        }
        memos.push((*rss_key, Arc::clone(&hashes)));
        count(|c| c.hash_memos_built += 1);
        hashes
    }

    /// Builds a trace directly from raw Ethernet frames (e.g. loaded
    /// from a pcap capture). Each frame is stored whole.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn from_frames(frames: Vec<Vec<u8>>) -> Trace {
        assert!(!frames.is_empty(), "empty trace");
        let bytes = frames.iter().map(Vec::len).sum();
        let mut all = Frames::with_capacity(frames.len(), bytes);
        for f in &frames {
            all.push(|out| {
                out.extend_from_slice(f);
                (0, f.len())
            });
        }
        Trace::new(all, None)
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if the trace has no frames (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.frames.index.is_empty()
    }

    /// Mean frame length in bytes.
    pub fn mean_frame_len(&self) -> f64 {
        self.frames.total_len as f64 / self.frames.len() as f64
    }

    /// Length of frame `i` in bytes (indices wrap, so the trace can be
    /// replayed cyclically).
    pub fn frame_len(&self, i: usize) -> usize {
        self.frames.index[i % self.frames.len()].len as usize
    }

    /// Writes frame `i` (indices wrap) to the front of `out` and returns
    /// its length: one copy of the head and one fill.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the frame.
    pub fn copy_frame(&self, i: usize, out: &mut [u8]) -> usize {
        self.frames.copy(i % self.frames.len(), out)
    }

    /// Frame `i` as one slice (indices wrap). A compatibility shim for
    /// the frozen benchmark crate, which cannot take
    /// [`Self::copy_frame`]: the first call writes every frame out in
    /// full, once per trace, and keeps that image for the trace's
    /// lifetime. Nothing in the simulator calls it; ROADMAP item 1
    /// deletes it with the other benchmark shims.
    pub fn frame(&self, i: usize) -> &[u8] {
        let image = self.frames.image.get_or_init(|| {
            let mut bytes = vec![0u8; self.frames.total_len];
            let mut ends = Vec::with_capacity(self.frames.len());
            let mut at = 0;
            for f in 0..self.frames.len() {
                at += self.frames.copy(f, &mut bytes[at..]);
                ends.push(at);
            }
            Image { bytes, ends }
        });
        let i = i % image.ends.len();
        let start = i.checked_sub(1).map_or(0, |p| image.ends[p]);
        &image.bytes[start..image.ends[i]]
    }
}

/// The time a frame of `len` bytes occupies the wire at `offered_gbps`:
/// its bytes plus 20 B of preamble and inter-frame gap, rounded to the
/// picosecond. Back-to-back frames at 100 Gbps are line rate, like the
/// paper's generator; the engine spaces arrivals by exactly this.
pub fn wire_gap(len: usize, offered_gbps: f64) -> SimTime {
    let wire_bits = (len as u64 + 20) * 8;
    SimTime::from_ps(round_to_u64(wire_bits as f64 * 1000.0 / offered_gbps))
}

/// Cache key for [`Trace::synthesize_cached`] and
/// [`Trace::from_workload_spec_cached`]: every field synthesis depends
/// on, with the float exponent taken by bit pattern and workload traces
/// keyed by their canonical spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TraceKey {
    packets: usize,
    flows: usize,
    zipf_alpha_bits: u64,
    fixed_size: Option<usize>,
    workload: Option<String>,
    seed: u64,
}

impl TraceKey {
    fn of(cfg: &TraceConfig) -> TraceKey {
        TraceKey {
            packets: cfg.packets,
            flows: cfg.flows,
            zipf_alpha_bits: cfg.zipf_alpha.to_bits(),
            fixed_size: match cfg.profile {
                TrafficProfile::CampusMix => None,
                TrafficProfile::FixedSize(s) => Some(s),
            },
            workload: None,
            seed: cfg.seed,
        }
    }
}

/// Bounded FIFO of (key, trace): a sweep touches only a handful of
/// distinct configs, and each cached trace holds several MB of frames,
/// so a short list beats an unbounded map.
const TRACE_CACHE_CAP: usize = 8;

fn trace_cache() -> &'static Mutex<Vec<(TraceKey, Trace)>> {
    static CACHE: Mutex<Vec<(TraceKey, Trace)>> = Mutex::new(Vec::new());
    &CACHE
}

/// The cached trace for `key`, else `build()`'s, which is then cached.
fn cached(key: TraceKey, build: impl FnOnce() -> Trace) -> Trace {
    {
        let cache = trace_cache().lock().expect("trace cache poisoned");
        if let Some((_, t)) = cache.iter().find(|(k, _)| *k == key) {
            count(|c| c.traces_reused += 1);
            return t.clone();
        }
    } // synthesize outside the lock
    let t = build();
    count(|c| c.traces_built += 1);
    let mut cache = trace_cache().lock().expect("trace cache poisoned");
    if cache.len() >= TRACE_CACHE_CAP {
        cache.remove(0);
    }
    cache.push((key, t.clone()));
    t
}

/// Samples a campus-like frame size: a small/medium/large mixture with
/// mean ≈ 981 B (the paper's published trace mean).
fn campus_frame_size(rng: &mut SplitMix64) -> usize {
    match rng.next_u64() % 100 {
        // 30%: small control/ACK frames, 64–120 B.
        0..=29 => 64 + rng.next_below(57) as usize,
        // 10%: medium, 400–800 B.
        30..=39 => 400 + rng.next_below(401) as usize,
        // 60%: near-MTU data, 1400–1500 B.
        _ => 1400 + rng.next_below(101) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_packet::ether::{EtherHeader, EtherType};
    use pm_packet::ipv4::Ipv4Header;

    #[test]
    fn campus_mean_near_981() {
        let t = Trace::synthesize(&TraceConfig {
            packets: 20_000,
            ..TraceConfig::default()
        });
        let mean = t.mean_frame_len();
        assert!(
            (920.0..1040.0).contains(&mean),
            "mean {mean} should approximate the paper's 981 B"
        );
    }

    #[test]
    fn fixed_size_is_exact() {
        let t = Trace::synthesize(&TraceConfig {
            packets: 100,
            profile: TrafficProfile::FixedSize(256),
            ..TraceConfig::default()
        });
        assert!((0..t.len()).all(|i| t.frame(i).len() == 256));
        assert_eq!(t.mean_frame_len(), 256.0);
    }

    #[test]
    fn frames_are_valid_packets() {
        let t = Trace::synthesize(&TraceConfig {
            packets: 2_000,
            ..TraceConfig::default()
        });
        let mut ip_count = 0;
        for i in 0..t.len() {
            let f = t.frame(i);
            let eth = EtherHeader::parse(f).unwrap();
            if eth.ethertype == EtherType::IPV4 {
                let ip = Ipv4Header::parse(&f[14..]).unwrap();
                assert!(ip.verify_checksum(&f[14..]), "frame {i} bad checksum");
                ip_count += 1;
            }
        }
        assert!(ip_count > 1_900, "almost all frames are IPv4");
    }

    #[test]
    fn destinations_cover_routable_prefixes() {
        let t = Trace::synthesize(&TraceConfig {
            packets: 4_000,
            ..TraceConfig::default()
        });
        let mut seen = [false; 3];
        for i in 0..t.len() {
            let f = t.frame(i);
            if EtherHeader::parse(f).unwrap().ethertype != EtherType::IPV4 {
                continue;
            }
            let dst = Ipv4Header::parse(&f[14..]).unwrap().dst;
            match dst[0] {
                10 => seen[0] = true,
                172 => seen[1] = true,
                192 => seen[2] = true,
                _ => {}
            }
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn replay_paces_at_offered_rate() {
        // 1020 wire bytes at 50 Gbps = 163.2 ns between arrivals.
        assert_eq!(wire_gap(1000, 50.0), SimTime::from_ps(163_200));
        // Back to back at line rate: a 64-B frame's 84 wire bytes at 100 Gbps.
        assert_eq!(wire_gap(64, 100.0), SimTime::from_ps(6_720));
        // Rounded to the picosecond: 12 160 bits at 3 Gbps = 4 053 333.3 ps.
        assert_eq!(wire_gap(1500, 3.0), SimTime::from_ps(4_053_333));
    }

    #[test]
    fn replay_wraps_cyclically() {
        let t = Trace::synthesize(&TraceConfig {
            packets: 10,
            profile: TrafficProfile::FixedSize(128),
            ..TraceConfig::default()
        });
        let (mut a, mut b) = ([0u8; 128], [0u8; 128]);
        assert_eq!(t.copy_frame(3, &mut a), 128);
        assert_eq!(t.copy_frame(13, &mut b), 128);
        assert_eq!(a, b, "wrapped frames identical");
        assert_eq!(t.frame_len(35), t.frame_len(5));
    }

    #[test]
    fn deterministic_synthesis() {
        let cfg = TraceConfig::default();
        let a = Trace::synthesize(&cfg);
        let b = Trace::synthesize(&cfg);
        assert_eq!(a.frame(123), b.frame(123));
        assert_eq!(a.mean_frame_len(), b.mean_frame_len());
    }

    #[test]
    #[should_panic(expected = "out of 64..=1500")]
    fn tiny_fixed_size_rejected() {
        let _ = Trace::synthesize(&TraceConfig {
            profile: TrafficProfile::FixedSize(32),
            ..TraceConfig::default()
        });
    }
}
