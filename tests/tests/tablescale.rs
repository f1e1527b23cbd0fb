//! Million-entry table stress: the cuckoo flow table against a
//! `HashMap` oracle at 1M entries, the displacement-chain bound, the
//! LPM trie against a masked-prefix oracle at 1M routes, and expiry
//! determinism for the scaled NAT under churn.
//!
//! The full-size populations only run under `--release` (CI); debug
//! builds scale down to keep `cargo test` quick.

use pm_elements::configs::buckets_for;
use pm_elements::cuckoo::{CuckooHash, InsertOutcome};
use pm_elements::trie::{RadixTrie, Route};
use pm_sim::SplitMix64;
use std::collections::HashMap;

/// Table population for the oracle tests: 1M released, 50k in debug.
const N: u64 = if cfg!(debug_assertions) {
    50_000
} else {
    1_000_000
};

#[test]
fn cuckoo_matches_hashmap_oracle_at_scale() {
    let mut c: CuckooHash<u64, u64> = CuckooHash::new(buckets_for(N) as usize);
    let mut oracle: HashMap<u64, u64> = HashMap::new();
    let mut rng = SplitMix64::new(0x7AB1E);

    // Fill to the full population; the table is sized by `buckets_for`,
    // so no insert may fail.
    for i in 0..N {
        let k = rng.next_u64();
        let outcome = c.insert(k, i);
        assert_ne!(outcome, InsertOutcome::Full, "insert {i} of {N}");
        oracle.insert(k, i);
    }
    assert_eq!(c.len(), oracle.len());
    assert!(c.len() <= c.capacity());

    // Interleaved lookups, overwrites, and removals stay in lock-step.
    let keys: Vec<u64> = oracle.keys().copied().collect();
    let mut rng = SplitMix64::new(0x5EED5);
    for round in 0..(N / 2) {
        let k = keys[(rng.next_u64() % keys.len() as u64) as usize];
        match rng.next_u64() % 3 {
            0 => assert_eq!(c.lookup(&k), oracle.get(&k).copied(), "round {round}"),
            1 => {
                assert_ne!(c.insert(k, round), InsertOutcome::Full);
                oracle.insert(k, round);
            }
            _ => assert_eq!(c.remove(&k), oracle.remove(&k), "round {round}"),
        }
    }
    assert_eq!(c.len(), oracle.len(), "after mixed operations");

    // Misses are misses: keys never inserted are absent from both.
    let mut rng = SplitMix64::new(0xAB5E17);
    for _ in 0..10_000 {
        let k = rng.next_u64() | 1 << 63; // disjoint high-bit namespace
        if !oracle.contains_key(&k) {
            assert_eq!(c.lookup(&k), None);
        }
    }
}

#[test]
fn displacement_chains_stay_bounded() {
    // An undersized table driven to rejection: every insert walks at
    // most the kick budget (64 displacements) before giving up, and the
    // counters stay consistent with the outcomes.
    let mut c: CuckooHash<u64, u64> = CuckooHash::new(16); // 64 slots
    let mut rng = SplitMix64::new(0xD15B);
    let mut full = 0u64;
    for i in 0..10_000 {
        if c.insert(rng.next_u64(), i) == InsertOutcome::Full {
            full += 1;
        }
    }
    assert!(full > 0, "an overdriven table must reject");
    assert!(
        c.max_chain() <= 64,
        "chain {} exceeds the kick budget",
        c.max_chain()
    );
    assert_eq!(c.evictions(), full, "one dropped victim per Full outcome");
    assert!(c.displacements() >= c.max_chain());
    assert_eq!(
        c.len(),
        c.capacity(),
        "rejections keep the table exactly full"
    );
}

/// Masked-prefix oracle: longest-prefix match by probing a
/// `(prefix & mask, len)` map from /32 down to /0 — O(33) per lookup,
/// which is what makes a 1M-route oracle tractable.
struct LpmOracle {
    map: HashMap<(u32, u8), u16>,
}

impl LpmOracle {
    fn new() -> Self {
        LpmOracle {
            map: HashMap::new(),
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    fn insert(&mut self, prefix: u32, len: u8, port: u16) {
        self.map.insert((prefix & Self::mask(len), len), port);
    }

    fn lookup(&self, ip: u32) -> Option<u16> {
        (0..=32u8)
            .rev()
            .find_map(|len| self.map.get(&(ip & Self::mask(len), len)).copied())
    }
}

#[test]
fn trie_matches_masked_prefix_oracle_at_scale() {
    let mut t = RadixTrie::new();
    let mut oracle = LpmOracle::new();
    let mut rng = SplitMix64::new(0x717E);
    for i in 0..N {
        // Clustered prefixes (skewed lengths, shared high bits) so the
        // trie sees deep shared paths, not just a sparse random spray.
        let h = rng.next_u64();
        let len = 8 + (h % 25) as u8; // /8..=/32
        let prefix = ((h >> 8) as u32) & LpmOracle::mask(len);
        let port = (h >> 48) as u16;
        t.insert(prefix, len, Route { port, gateway: 0 });
        oracle.insert(prefix, len, port);
        if i < 4 {
            // A few broad defaults exercise the short-prefix fallback.
            t.insert(
                0,
                0,
                Route {
                    port: 9_999,
                    gateway: 0,
                },
            );
            oracle.insert(0, 0, 9_999);
        }
    }

    let mut rng = SplitMix64::new(0x100C); // lookup stream
    for i in 0..20_000u32 {
        let ip = rng.next_u32();
        assert_eq!(
            t.lookup(ip).map(|r| r.port),
            oracle.lookup(ip),
            "lookup {i}: ip {ip:#010x}"
        );
    }
}

#[test]
fn synthesized_fib_is_deterministic_at_scale() {
    use pm_click::Element;
    use pm_elements::route::LookupIpRoute;
    let routes = if cfg!(debug_assertions) {
        20_000
    } else {
        1_000_000
    };
    let build = || {
        let mut rt = LookupIpRoute::default();
        rt.add_route(
            0,
            0,
            Route {
                port: 0,
                gateway: 0,
            },
        );
        rt.synthesize(routes, 0xF1B, 4);
        rt
    };
    let a = build();
    let b = build();
    assert_eq!(a.routes, routes + 1);
    assert_eq!(a.routes, b.routes, "same seed, same FIB");
    assert_eq!(a.table_stats(), b.table_stats(), "same trie shape");
}

/// The `SYNTH` build starts deep walks at an indexed depth-16 node, and
/// that changes no node: with the explicit routes inserted first, the
/// configured FIB equals a trie built by one plain `insert` per draw,
/// node for node.
#[test]
fn indexed_synth_fib_equals_plain_inserts() {
    use pm_click::{Args, Element};
    use pm_elements::configs::ROUTES;
    use pm_elements::route::{synth_routes, LookupIpRoute};
    use pm_elements::trie::parse_cidr;
    use std::collections::HashSet;
    for (explicit, seed, nports) in [(ROUTES, 177, 1), ("10.0.0.0/8 3", 0x5EED, 4)] {
        let mut rt = LookupIpRoute::default();
        rt.configure(&Args::parse(&format!(
            "{explicit}, SYNTH {N} {seed} {nports}"
        )))
        .expect("valid FIB arguments");

        let mut plain = RadixTrie::new();
        for item in explicit.split(',') {
            let (cidr, port) = item.trim().split_once(' ').expect("CIDR PORT");
            let (prefix, len) = parse_cidr(cidr).expect("valid CIDR");
            let port = port.parse().expect("valid port");
            plain.insert(prefix, len, Route { port, gateway: 0 });
        }
        let mut distinct = HashSet::new();
        for (prefix, len, route) in synth_routes(N, seed, nports) {
            plain.insert(prefix, len, route);
            distinct.insert((prefix, len));
        }
        assert_eq!(**rt.fib(), plain, "SYNTH {N} {seed} {nports}");
        assert_eq!(rt.routes, N + explicit.split(',').count() as u64);
        if N == 1_000_000 && seed == 177 {
            // The flow-scale router's 1 M draws: 18 % distinct prefixes.
            assert_eq!((distinct.len(), plain.node_count()), (180_756, 329_650));
        }
    }
}

/// At full size, a FIB taken over inside a `FibReuse` scope is the table
/// a stand-alone configure builds, node for node; writing to it copies
/// it first; and nothing is retained once the scope is gone.
#[test]
fn handed_over_fib_equals_a_fresh_build_at_scale() {
    use pm_click::{Args, Element};
    use pm_elements::route::{FibReuse, LookupIpRoute};
    use std::sync::Arc;
    let routes = if cfg!(debug_assertions) {
        20_000
    } else {
        1_000_000
    };
    let args = Args::parse(&format!("0.0.0.0/0 0, SYNTH {routes} 177 1"));
    let configured = || {
        let mut rt = LookupIpRoute::default();
        rt.configure(&args).expect("valid FIB arguments");
        rt
    };
    let fresh = configured();
    assert!(!FibReuse::holds_table(), "no scope, nothing kept");

    let scope = FibReuse::open();
    let donor = configured();
    let mut taker = configured();
    assert_eq!(scope.counts(), (1, 1));
    assert!(Arc::ptr_eq(donor.fib(), taker.fib()));
    assert_eq!(taker.fib(), fresh.fib(), "node for node");
    assert_eq!(taker.table_stats(), fresh.table_stats());
    assert_eq!(taker.n_outputs(), fresh.n_outputs());

    taker.add_route(
        0x0b00_0000,
        8,
        Route {
            port: 0,
            gateway: 0x0b00_0001,
        },
    );
    assert_eq!(donor.fib(), fresh.fib(), "the donor is untouched");
    assert_ne!(taker.fib(), donor.fib());
    assert_eq!(
        taker.fib().node_count(),
        donor.fib().node_count() + 1,
        "11/8 leaves 10/8's path at the last bit"
    );

    drop(scope);
    assert!(!FibReuse::holds_table());
    assert_eq!(Arc::strong_count(donor.fib()), 1, "the slot let go");
}

/// Two identical workload-driven NAT runs report identical expiry,
/// eviction, and occupancy counters: idle-timeout decisions depend only
/// on virtual time, never on host scheduling.
#[test]
fn nat_expiry_accounting_is_deterministic() {
    use packetmill::{ExperimentBuilder, Nf, WorkloadSpec};
    // The trace cycle (frames=16k, ~1.4 ms of virtual time) must outlast
    // the NAT's 1000-us idle timeout, or no binding can ever sit idle
    // long enough to expire; two cycles give every once-per-cycle flow
    // an idle gap past the timeout.
    let spec = WorkloadSpec::parse("seed=0xE59;flows=20k;zipf=1.1;life=2000;frames=16000")
        .expect("valid workload spec");
    let run = || {
        let (m, r) = ExperimentBuilder::new(Nf::NatScale(20_000))
            .packets(40_000)
            .workload(spec.clone())
            .run_with_report()
            .expect("NAT churn run");
        (m, r.workload.expect("workload section").tables)
    };
    let (m1, t1) = run();
    let (m2, t2) = run();
    assert_eq!(m1, m2, "measurements identical");
    assert_eq!(t1, t2, "table counters identical");
    let nat = t1.iter().find(|t| t.kind == "cuckoo").expect("NAT table");
    assert!(nat.expiries > 0, "churn past IDLE_US must expire bindings");
    assert!(nat.occupancy <= nat.capacity);
}
