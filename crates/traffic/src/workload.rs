//! Deterministic flow-population model: Zipf popularity, flow churn,
//! and attack mixes.
//!
//! A [`WorkloadSpec`] describes a traffic *population* — how many flows
//! exist, how skewed their popularity is, how fast they churn, and which
//! adversarial mixes (SYN floods, port-scan storms) ride on top — in a
//! compact `--workload` spec string with a canonical
//! [`WorkloadSpec::parse`]/[`WorkloadSpec::to_spec`] round-trip. Clauses
//! are lexed by `pm_sim::spec`, the lexer `--faults` uses too; this
//! module owns only the keys, the attack kinds and the frame-count
//! window unit.
//!
//! Every decision a [`Workload`] makes — which flow a frame belongs to,
//! when a flow's generation rotates, whether a frame is an attack
//! frame — is a **pure hash** of `(spec seed, salt, sequence number)`:
//! no mutable RNG state is threaded anywhere, so the same spec produces
//! byte-identical traces regardless of sweep thread count or build
//! order, and churn accounting can be computed analytically.
//!
//! The churn model is a phased-generation scheduler: flow slot `s` gets
//! a hash-derived phase `phase(s) ∈ [0, life)`, and the flow living in
//! slot `s` at frame `seq` is generation `(seq + phase(s)) / life`. One
//! generation per slot is live at any instant, so over any window the
//! identity `arrivals − expiries == live` holds exactly — the
//! conservation property pinned by `tests/tests/workloads.rs`.

use crate::zipf::Zipf;
use pm_packet::builder::PacketBuilder;
use pm_sim::spec::{clauses, fmt_window, parse_count, parse_rate, Clause, Event, PPM};
use pm_sim::SplitMix64;
use std::fmt;
use std::num::NonZeroU64;

/// Parse-level cap on the flow population (a `Zipf` table costs 8 B per
/// flow, so an unbounded spec would let a fuzzed string allocate
/// arbitrary memory).
pub const MAX_FLOWS: u64 = 50_000_000;

/// Parse-level cap on distinct synthesized frames.
pub const MAX_FRAMES: u64 = 4_000_000;

/// Frame-size model for normal (non-attack) traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeModel {
    /// The campus mixture (mean ≈ 981 B, bimodal ACK/MTU).
    Campus,
    /// Every normal frame exactly this many bytes.
    Fixed(u16),
}

/// An adversarial traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// SYN flood: every attack frame is a unique spoofed-source TCP SYN
    /// to one victim service — maximal flow-table insertion pressure.
    SynFlood,
    /// Port-scan storm: one scanner source sweeps destination ports
    /// sequentially — maximal rule-scan / conntrack-miss pressure.
    PortScan,
}

impl AttackKind {
    /// Per-kind hash salt so co-scheduled mixes decide independently.
    fn salt(self) -> u64 {
        match self {
            AttackKind::SynFlood => 0x5F1_F100D,
            AttackKind::PortScan => 0x0005_CA25_7012,
        }
    }

    /// The spec keyword.
    pub const fn keyword(self) -> &'static str {
        match self {
            AttackKind::SynFlood => "syn",
            AttackKind::PortScan => "scan",
        }
    }
}

/// One scheduled attack mix: a kind active on frame sequences
/// `[from, until)` at `rate_ppm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackEvent {
    /// What kind of attack traffic.
    pub kind: AttackKind,
    /// First frame sequence covered (inclusive).
    pub from: u64,
    /// End of the window (exclusive); `u64::MAX` = until the trace ends.
    pub until: u64,
    /// Per-frame probability, parts per million.
    pub rate_ppm: u32,
}

impl AttackEvent {
    /// Whether the window covers frame `seq`.
    pub fn active_at(&self, seq: u64) -> bool {
        self.from <= seq && seq < self.until
    }
}

/// Error from [`WorkloadSpec::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpecError(String);

impl fmt::Display for WorkloadSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad workload spec: {}", self.0)
    }
}

impl std::error::Error for WorkloadSpecError {}

/// A parsed `--workload` spec: the full flow-population description.
///
/// The float-free representation (`zipf_x1000` thousandths, ppm rates)
/// keeps the spec `Eq`/hashable and round-trippable without float
/// hazards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Seed for every per-frame and per-flow hash decision.
    pub seed: u64,
    /// Number of flow slots in the population.
    pub flows: u64,
    /// Zipf popularity exponent, thousandths (800 = α 0.8; 0 = uniform).
    pub zipf_x1000: u32,
    /// Flow lifetime in frame sequences (one generation per slot lives
    /// this long before rotating); 0 = static population, no churn.
    pub life: u64,
    /// Distinct frames to synthesize; 0 = derived from `flows`.
    pub frames: u64,
    /// Frame-size model for normal traffic.
    pub size: SizeModel,
    /// Scheduled attack mixes, in decision-priority order.
    pub attacks: Vec<AttackEvent>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 0xF10E5,
            flows: 4096,
            zipf_x1000: 800,
            life: 0,
            frames: 0,
            size: SizeModel::Campus,
            attacks: Vec::new(),
        }
    }
}

impl WorkloadSpec {
    /// Parses a workload spec (the `--workload` CLI syntax):
    /// `;`-separated clauses.
    ///
    /// * scalars: `seed=N`, `flows=N`, `zipf=0.8`, `life=N`, `frames=N`,
    ///   `size=campus` or `size=<bytes>`; counts accept `k`/`M`
    ///   suffixes (`flows=10M`) and `0x` hex.
    /// * attacks: `syn@from..until:rate=R` and `scan@from..until:rate=R`
    ///   with windows in frame-sequence space (empty endpoint = 0 / end)
    ///   and rates as a probability or `Nppm`.
    ///
    /// Example:
    /// `flows=1M;zipf=1.1;life=64k;syn@10k..200k:rate=0.2;scan@..:rate=5000ppm`
    pub fn parse(spec: &str) -> Result<WorkloadSpec, WorkloadSpecError> {
        let mut w = WorkloadSpec::default();
        for clause in clauses(spec) {
            w.apply(clause).map_err(WorkloadSpecError)?;
        }
        Ok(w)
    }

    /// Applies one lexed clause.
    fn apply(&mut self, clause: Result<Clause<'_>, String>) -> Result<(), String> {
        let (key, v) = match clause? {
            Clause::Scalar(key, v) => (key, v),
            Clause::Event(ev) => {
                self.attacks.push(attack(&ev)?);
                return Ok(());
            }
        };
        match key {
            "seed" => self.seed = parse_count(v).ok_or_else(|| format!("bad seed '{v}'"))?,
            "flows" => {
                self.flows = parse_count(v)
                    .filter(|&n| (1..=MAX_FLOWS).contains(&n))
                    .ok_or_else(|| format!("bad flows '{v}' (1..={MAX_FLOWS})"))?;
            }
            "zipf" => {
                let a: f64 = v
                    .parse()
                    .ok()
                    .filter(|a| (0.0..=4.0).contains(a))
                    .ok_or_else(|| format!("bad zipf '{v}' (0..=4)"))?;
                self.zipf_x1000 = (a * 1000.0).round() as u32;
            }
            "life" => self.life = parse_count(v).ok_or_else(|| format!("bad life '{v}'"))?,
            "frames" => {
                self.frames = parse_count(v)
                    .filter(|&n| n <= MAX_FRAMES)
                    .ok_or_else(|| format!("bad frames '{v}' (0..={MAX_FRAMES})"))?;
            }
            "size" if v == "campus" => self.size = SizeModel::Campus,
            "size" => {
                let b = v
                    .parse::<u16>()
                    .ok()
                    .filter(|b| (64..=1500).contains(b))
                    .ok_or_else(|| format!("bad size '{v}' (campus or 64..=1500)"))?;
                self.size = SizeModel::Fixed(b);
            }
            other => return Err(format!("unknown key '{other}'")),
        }
        Ok(())
    }

    /// The canonical spec string ([`Self::parse`] round-trips it).
    pub fn to_spec(&self) -> String {
        let mut out = format!(
            "seed={};flows={};zipf={};life={};frames={};size={}",
            self.seed,
            self.flows,
            self.zipf_x1000 as f64 / 1000.0,
            self.life,
            self.frames,
            match self.size {
                SizeModel::Campus => "campus".to_string(),
                SizeModel::Fixed(b) => b.to_string(),
            },
        );
        for a in &self.attacks {
            let window = fmt_window((a.from, a.until), (0, u64::MAX), |n| n.to_string());
            out.push_str(&format!(
                ";{}@{window}:rate={}ppm",
                a.kind.keyword(),
                a.rate_ppm
            ));
        }
        out
    }
}

/// The attack mix one event clause schedules; windows are frame
/// sequences.
fn attack(ev: &Event<'_>) -> Result<AttackEvent, String> {
    let kind = match ev.kind {
        "syn" => AttackKind::SynFlood,
        "scan" => AttackKind::PortScan,
        other => return Err(format!("unknown attack kind '{other}'")),
    };
    let (from, until) = ev.window(0, u64::MAX, |s| {
        parse_count(s).ok_or_else(|| format!("bad window endpoint '{s}'"))
    })?;
    ev.only(&["rate"])?;
    let v = ev.param("rate")?;
    Ok(AttackEvent {
        kind,
        from,
        until,
        rate_ppm: parse_rate(v).ok_or_else(|| format!("bad rate '{v}'"))?,
    })
}

/// What one frame of the trace carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramePlan {
    /// A normal flow frame: population slot and churn generation.
    Normal {
        /// Flow slot (Zipf rank; 0 is the most popular).
        slot: u64,
        /// Churn generation living in that slot at this sequence.
        generation: u64,
    },
    /// A SYN-flood frame (unique spoofed source per sequence).
    Syn,
    /// A port-scan frame (fixed scanner, swept destination port).
    Scan,
}

/// The 5-tuple of one live flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowTuple {
    /// Source address.
    pub src_ip: [u8; 4],
    /// Destination address (always inside a routable prefix).
    pub dst_ip: [u8; 4],
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// 6 = TCP, 17 = UDP, 1 = ICMP.
    pub proto: u8,
}

/// Churn and mix accounting over a frame window (see
/// [`Workload::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Flow generations that started inside the window (every slot's
    /// initial generation counts as an arrival).
    pub arrivals: u64,
    /// Flow generations that ended inside the window.
    pub expiries: u64,
    /// Flows live at the end of the window (always the slot count: one
    /// generation per slot).
    pub live: u64,
    /// SYN-flood frames in the window.
    pub syn_frames: u64,
    /// Port-scan frames in the window.
    pub scan_frames: u64,
    /// Normal flow frames in the window.
    pub normal_frames: u64,
}

impl WorkloadStats {
    /// The churn conservation identity: `arrivals − expiries == live`.
    pub fn conserves(&self) -> bool {
        self.arrivals - self.expiries == self.live
    }
}

/// Routable destination prefixes (match the router presets' tables).
const DST_PREFIXES: [([u8; 2], u8); 4] = [
    ([10, 0], 8),
    ([10, 200], 8),
    ([172, 16], 12),
    ([192, 168], 16),
];

const SALT_PHASE: u64 = 0x9A5E_0F5E7;
const SALT_PICK: u64 = 0x21C_0FFEE;
const SALT_FLOW: u64 = 0xF10_0D1E5;
const SALT_SIZE: u64 = 0x517E_0B17;

/// A realized workload: the spec plus its built Zipf table.
#[derive(Debug, Clone)]
pub struct Workload {
    spec: WorkloadSpec,
    zipf: Zipf,
}

impl Workload {
    /// Builds the workload (constructs the Zipf CDF once — O(flows)).
    pub fn new(spec: WorkloadSpec) -> Workload {
        let zipf = Zipf::new(spec.flows as usize, spec.zipf_x1000 as f64 / 1000.0);
        Workload { spec, zipf }
    }

    /// The spec this workload realizes.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The popularity sampler (for analytic-CDF checks).
    pub fn zipf(&self) -> &Zipf {
        &self.zipf
    }

    /// Distinct frames to synthesize: the spec's `frames`, or a
    /// flow-scaled default that keeps the touched working set
    /// representative without unbounded trace memory.
    pub fn frames(&self) -> usize {
        if self.spec.frames != 0 {
            self.spec.frames as usize
        } else {
            self.spec.flows.clamp(1024, 131_072) as usize
        }
    }

    /// One 64-bit decision hash for `(salt, a, b)` — the fault-plan
    /// pure-hash discipline.
    fn h(&self, salt: u64, a: u64, b: u64) -> u64 {
        SplitMix64::new(
            self.spec.seed
                ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ a.rotate_left(24)
                ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9),
        )
        .next_u64()
    }

    /// The churn phase of flow slot `s` (uniform in `[0, life)`) for a
    /// finite flow lifetime `life` (immortal flows have no phase).
    fn phase(&self, slot: u64, life: NonZeroU64) -> u64 {
        self.h(SALT_PHASE, slot, 0) % life
    }

    /// The generation living in `slot` at frame `seq`.
    pub fn generation(&self, slot: u64, seq: u64) -> u64 {
        match NonZeroU64::new(self.spec.life) {
            None => 0,
            Some(life) => (seq + self.phase(slot, life)) / life,
        }
    }

    /// What frame `seq` carries. Pure in `(spec, seq)`.
    pub fn plan(&self, seq: u64) -> FramePlan {
        for (i, a) in self.spec.attacks.iter().enumerate() {
            if !a.active_at(seq) {
                continue;
            }
            let h = self.h(a.kind.salt() ^ i as u64, seq, 1);
            if h % PPM < u64::from(a.rate_ppm) {
                return match a.kind {
                    AttackKind::SynFlood => FramePlan::Syn,
                    AttackKind::PortScan => FramePlan::Scan,
                };
            }
        }
        let mut r = SplitMix64::new(self.h(SALT_PICK, seq, 2));
        let slot = self.zipf.sample(&mut r) as u64;
        FramePlan::Normal {
            slot,
            generation: self.generation(slot, seq),
        }
    }

    /// The 5-tuple of `(slot, generation)` — a pure hash, so a flow's
    /// identity is stable for its whole lifetime and every generation
    /// rotation yields a brand-new tuple (new table entry downstream).
    pub fn flow(&self, slot: u64, generation: u64) -> FlowTuple {
        let mut r = SplitMix64::new(self.h(SALT_FLOW, slot, generation));
        let (p, plen) = DST_PREFIXES[(r.next_u64() % 4) as usize];
        let d = r.next_u32();
        let dst_ip = match plen {
            8 => [p[0], (d >> 16) as u8, (d >> 8) as u8, d as u8],
            12 => [p[0], 16 + ((d >> 16) as u8 & 0x0f), (d >> 8) as u8, d as u8],
            _ => [p[0], p[1], (d >> 8) as u8, d as u8],
        };
        let s = r.next_u32();
        let proto = match r.next_u64() % 100 {
            0..=84 => 6,
            85..=96 => 17,
            _ => 1,
        };
        FlowTuple {
            src_ip: [10, 1 + (s >> 16) as u8 % 128, (s >> 8) as u8, s as u8],
            dst_ip,
            src_port: 1024 + (r.next_u64() % 60_000) as u16,
            dst_port: [80u16, 443, 53, 123, 8080][(r.next_u64() % 5) as usize],
            proto,
        }
    }

    /// A normal frame's size under the spec's size model.
    fn frame_size(&self, seq: u64) -> usize {
        match self.spec.size {
            SizeModel::Fixed(b) => b as usize,
            SizeModel::Campus => {
                let mut r = SplitMix64::new(self.h(SALT_SIZE, seq, 3));
                match r.next_u64() % 100 {
                    0..=29 => 64 + r.next_below(57) as usize,
                    30..=39 => 400 + r.next_below(401) as usize,
                    _ => 1400 + r.next_below(101) as usize,
                }
            }
        }
    }

    /// Builds the complete Ethernet frame for sequence `seq`.
    pub fn build_frame(&self, seq: u64) -> Vec<u8> {
        self.builder(seq, self.plan(seq)).build()
    }

    /// The builder of frame `seq`, for a caller that already holds
    /// `self.plan(seq)` (trace synthesis builds only its head).
    pub(crate) fn builder(&self, seq: u64, plan: FramePlan) -> PacketBuilder {
        match plan {
            FramePlan::Syn => {
                // Unique spoofed source per frame: every SYN is a brand-
                // new flow aimed at one victim service.
                let h = self.h(AttackKind::SynFlood.salt(), seq, 4);
                PacketBuilder::tcp()
                    .syn()
                    .src_ip([203, (h >> 16) as u8, (h >> 8) as u8, h as u8])
                    .src_port(1024 + (h >> 24) as u16 % 60_000)
                    .dst_ip([10, 0, 0, 80])
                    .dst_port(80)
                    .seq(seq as u32)
                    .frame_len(64)
            }
            FramePlan::Scan => {
                // One scanner walking the port space sequentially.
                let h = self.h(AttackKind::PortScan.salt(), seq, 5);
                PacketBuilder::tcp()
                    .syn()
                    .src_ip([198, 18, 0, 99])
                    .src_port(31_337)
                    .dst_ip([192, 168, (h >> 8) as u8, h as u8])
                    .dst_port((seq % 65_536) as u16)
                    .seq(seq as u32)
                    .frame_len(64)
            }
            FramePlan::Normal { slot, generation } => {
                let f = self.flow(slot, generation);
                let b = match f.proto {
                    6 => PacketBuilder::tcp(),
                    17 => PacketBuilder::udp(),
                    _ => PacketBuilder::icmp(),
                };
                b.src_ip(f.src_ip)
                    .dst_ip(f.dst_ip)
                    .src_port(f.src_port)
                    .dst_port(f.dst_port)
                    .ttl(64)
                    .seq(seq as u32)
                    .frame_len(self.frame_size(seq))
            }
        }
    }

    /// Churn and mix accounting over frames `[0, n)`.
    ///
    /// Churn is analytic (per-slot phase arithmetic, no trace walk);
    /// the mix counts replay the per-frame plan decisions.
    pub fn stats(&self, n: u64) -> WorkloadStats {
        let mut s = self.churn(n);
        for seq in 0..n {
            match self.plan(seq) {
                FramePlan::Syn => s.syn_frames += 1,
                FramePlan::Scan => s.scan_frames += 1,
                FramePlan::Normal { .. } => s.normal_frames += 1,
            }
        }
        s
    }

    /// The churn half of [`Self::stats`] (mix counts zero).
    pub(crate) fn churn(&self, n: u64) -> WorkloadStats {
        let mut s = WorkloadStats {
            live: self.spec.flows,
            ..WorkloadStats::default()
        };
        if n == 0 {
            return WorkloadStats::default();
        }
        match NonZeroU64::new(self.spec.life) {
            None => s.arrivals = self.spec.flows,
            Some(life) => {
                // Σ over slots of generation(slot, n − 1) − generation(slot, 0),
                // i.e. of (n − 1 + phase) / life (generation 0 at frame 0,
                // since phase < life), with the division taken once:
                // n − 1 = q·life + r, and r + phase < 2·life.
                let (q, r) = ((n - 1) / life, (n - 1) % life);
                let rotations: u64 = (0..self.spec.flows)
                    .map(|slot| q + u64::from(self.phase(slot, life) >= life.get() - r))
                    .sum();
                s.arrivals = self.spec.flows + rotations;
                s.expiries = rotations;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_round_trips() {
        let w = WorkloadSpec::default();
        assert_eq!(WorkloadSpec::parse(&w.to_spec()), Ok(w));
    }

    #[test]
    fn spec_parses_suffixes_and_attacks() {
        let w = WorkloadSpec::parse(
            "flows=1M;zipf = 1.1;life=64k;frames=128k;size=256;;\
             syn @ 10k .. 200k : rate= 0.2 ,;scan@..:rate=5000ppm; seed=0xBEEF ",
        )
        .expect("parses");
        assert_eq!(w.flows, 1_000_000);
        assert_eq!(w.zipf_x1000, 1100);
        assert_eq!(w.life, 64_000);
        assert_eq!(w.frames, 128_000);
        assert_eq!(w.size, SizeModel::Fixed(256));
        assert_eq!(w.seed, 0xBEEF);
        assert_eq!(
            w.attacks,
            vec![
                AttackEvent {
                    kind: AttackKind::SynFlood,
                    from: 10_000,
                    until: 200_000,
                    rate_ppm: 200_000,
                },
                AttackEvent {
                    kind: AttackKind::PortScan,
                    from: 0,
                    until: u64::MAX,
                    rate_ppm: 5_000,
                },
            ]
        );
        let round = WorkloadSpec::parse(&w.to_spec()).expect("canonical form parses");
        assert_eq!(round, w);
    }

    #[test]
    fn spec_errors_are_reported() {
        for bad in [
            "flows=0",           // below minimum
            "flows=999999M",     // over the cap
            "zipf=9",            // exponent out of range
            "size=12",           // fixed size below 64
            "size=jumbo",        // unknown size model
            "warp=1",            // unknown key
            "syn@..",            // missing rate
            "syn@..:rate=2.0",   // rate > 1
            "syn@5..5:rate=0.1", // empty window
            "scan@..:burst=9",   // unknown parameter
            "flood@..:rate=0.1", // unknown attack kind
            "syn:rate=0.1",      // no window
            "frames=1x",         // malformed count
        ] {
            assert!(WorkloadSpec::parse(bad).is_err(), "'{bad}' should fail");
        }
    }

    #[test]
    fn churn_conserves_analytically_and_by_iteration() {
        let w = Workload::new(WorkloadSpec {
            flows: 64,
            life: 37,
            ..WorkloadSpec::default()
        });
        for n in [1u64, 36, 37, 38, 200, 1000] {
            let s = w.stats(n);
            assert!(s.conserves(), "n={n}: {s:?}");
            // Brute-force oracle: walk every (slot, seq) generation.
            let mut arrivals = 0u64;
            let mut expiries = 0u64;
            for slot in 0..64 {
                let mut last = None;
                for seq in 0..n {
                    let g = w.generation(slot, seq);
                    match last {
                        None => arrivals += 1,
                        Some(prev) if prev != g => {
                            arrivals += 1;
                            expiries += 1;
                        }
                        _ => {}
                    }
                    last = Some(g);
                }
            }
            assert_eq!((s.arrivals, s.expiries), (arrivals, expiries), "n={n}");
        }
    }

    #[test]
    fn static_population_never_churns() {
        let w = Workload::new(WorkloadSpec {
            flows: 100,
            life: 0,
            ..WorkloadSpec::default()
        });
        let s = w.stats(10_000);
        assert_eq!(s.arrivals, 100);
        assert_eq!(s.expiries, 0);
        assert_eq!(s.live, 100);
        assert!(s.conserves());
    }

    #[test]
    fn generation_rotation_changes_the_tuple() {
        let w = Workload::new(WorkloadSpec {
            flows: 16,
            life: 10,
            ..WorkloadSpec::default()
        });
        for slot in 0..16 {
            assert_ne!(w.flow(slot, 0), w.flow(slot, 1), "slot {slot}");
            assert_eq!(w.flow(slot, 1), w.flow(slot, 1), "pure hash");
        }
    }

    #[test]
    fn attack_rates_approximate_ppm() {
        let w = Workload::new(WorkloadSpec {
            attacks: vec![AttackEvent {
                kind: AttackKind::SynFlood,
                from: 0,
                until: u64::MAX,
                rate_ppm: 250_000,
            }],
            ..WorkloadSpec::default()
        });
        let s = w.stats(8_192);
        let frac = s.syn_frames as f64 / 8_192.0;
        assert!((0.2..0.3).contains(&frac), "syn fraction {frac}");
        assert_eq!(s.syn_frames + s.normal_frames, 8_192);
    }

    #[test]
    fn attack_windows_bound_the_mix() {
        let w = Workload::new(WorkloadSpec {
            attacks: vec![AttackEvent {
                kind: AttackKind::PortScan,
                from: 100,
                until: 200,
                rate_ppm: 1_000_000,
            }],
            ..WorkloadSpec::default()
        });
        for seq in 0..100 {
            assert!(matches!(w.plan(seq), FramePlan::Normal { .. }));
        }
        for seq in 100..200 {
            assert_eq!(w.plan(seq), FramePlan::Scan);
        }
        for seq in 200..300 {
            assert!(matches!(w.plan(seq), FramePlan::Normal { .. }));
        }
    }

    #[test]
    fn frames_are_valid_and_deterministic() {
        use pm_packet::ether::{EtherHeader, EtherType};
        use pm_packet::ipv4::Ipv4Header;
        let w = Workload::new(WorkloadSpec {
            flows: 512,
            life: 100,
            attacks: vec![AttackEvent {
                kind: AttackKind::SynFlood,
                from: 0,
                until: u64::MAX,
                rate_ppm: 100_000,
            }],
            ..WorkloadSpec::default()
        });
        for seq in 0..512 {
            let f = w.build_frame(seq);
            assert_eq!(f, w.build_frame(seq), "seq {seq} deterministic");
            let eth = EtherHeader::parse(&f).unwrap();
            assert_eq!(eth.ethertype, EtherType::IPV4);
            let ip = Ipv4Header::parse(&f[14..]).unwrap();
            assert!(ip.verify_checksum(&f[14..]), "seq {seq} checksum");
        }
    }

    #[test]
    fn zipf_skew_shows_in_slot_picks() {
        let w = Workload::new(WorkloadSpec {
            flows: 1000,
            zipf_x1000: 1000,
            ..WorkloadSpec::default()
        });
        let mut head = 0u64;
        for seq in 0..4096 {
            if let FramePlan::Normal { slot, .. } = w.plan(seq) {
                if slot < 10 {
                    head += 1;
                }
            }
        }
        // Zipf(1) over 1000 ranks: top-10 mass ≈ 39%.
        let frac = head as f64 / 4096.0;
        assert!((0.3..0.5).contains(&frac), "top-10 fraction {frac}");
    }
}
