//! `LookupIPRoute`: longest-prefix-match routing on the radix trie.

use crate::trie::{parse_cidr, parse_ip, RadixTrie, Route};
use pm_click::{Action, Args, ConfigError, Ctx, Element, Pkt, TableStats};
use pm_mem::{AccessKind, AddressSpace, Region};
use pm_packet::ether::ETHER_LEN;
use std::cell::RefCell;
use std::sync::Arc;

/// Bytes per trie node in the charged region (two children + route).
const NODE_BYTES: u64 = 16;

/// Most routes one `SYNTH` argument may ask for: above the 10 M rung of
/// the flow-scale ladder, and low enough that node indices stay far
/// from `u32::MAX` and the host trie under 8 GiB.
pub const MAX_SYNTH_ROUTES: u64 = 1 << 24;

/// `LookupIPRoute(CIDR PORT [GW], …, SYNTH "count [seed [nports]]")`:
/// looks up the destination address, sets the destination-IP annotation
/// (next hop) and forwards out the route's port. Drops packets with no
/// matching route.
///
/// `SYNTH` bulk-loads `count` deterministic synthetic prefixes (drawn
/// from the 10/8, 172.16/12 and 192.168/16 families so workload traffic
/// is routable) for million-route table-scaling sweeps, alongside any
/// explicitly listed routes.
///
/// The trie nodes live in a simulated region; every node walked is
/// charged, so bigger tables genuinely cost more cache.
#[derive(Debug, Default)]
pub struct LookupIpRoute {
    /// Shared with the [`FibReuse`] slot after a hand-over; written only
    /// through [`Arc::make_mut`].
    trie: Arc<RadixTrie>,
    nodes_region: Option<Region>,
    max_port: u16,
    /// Routes installed: one per explicit route and one per `SYNTH`
    /// draw, so a prefix drawn twice counts twice. The table can hold
    /// far fewer distinct prefixes (1 M draws of `SYNTH 1000000 177 1`
    /// install 180 756).
    pub routes: u64,
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that found a route.
    pub hits: u64,
    /// Deepest trie walk any lookup has taken.
    pub max_walk: u64,
    /// Packets dropped for lack of a route.
    pub no_route: u64,
}

impl LookupIpRoute {
    /// Adds a route programmatically.
    pub fn add_route(&mut self, prefix: u32, len: u8, route: Route) {
        self.max_port = self.max_port.max(route.port);
        self.routes += 1;
        Arc::make_mut(&mut self.trie).insert(prefix, len, route);
    }

    /// The routing table (shared with the [`FibReuse`] slot after a
    /// hand-over).
    pub fn fib(&self) -> &Arc<RadixTrie> {
        &self.trie
    }

    /// Installs `count` synthetic routes, derived purely from `seed` so
    /// the same arguments always build the same table.
    ///
    /// # Panics
    ///
    /// Panics if `nports` is zero (`configure` rejects it first).
    pub fn synthesize(&mut self, count: u64, seed: u64, nports: u16) {
        let max_port = &mut self.max_port;
        let draws = synth_routes(count, seed, nports).inspect(|&(_, _, r)| {
            *max_port = (*max_port).max(r.port);
        });
        Arc::make_mut(&mut self.trie).extend(draws);
        self.routes += count;
    }
}

/// The `count` draws `SYNTH "count seed nports"` installs, in order:
/// `(prefix, len, route)`, a pure function of `(seed, i)`. Draws can
/// repeat a prefix (a later one replaces the earlier route), so the
/// table holds fewer distinct prefixes than draws.
///
/// # Panics
///
/// Panics if `nports` is zero.
pub fn synth_routes(count: u64, seed: u64, nports: u16) -> impl Iterator<Item = (u32, u8, Route)> {
    const FAMILIES: [(u32, u8); 3] = [
        (0x0a00_0000, 8),  // 10.0.0.0/8
        (0xac10_0000, 12), // 172.16.0.0/12
        (0xc0a8_0000, 16), // 192.168.0.0/16
    ];
    assert!(nports > 0, "SYNTH needs at least one port");
    (0..count).map(move |i| {
        let h = pm_sim::SplitMix64::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        let (base, base_len) = FAMILIES[(h % 3) as usize];
        // Prefix length from the family base out to /28.
        let len = base_len + ((h >> 8) % u64::from(29 - base_len)) as u8;
        let mask = u32::MAX << (32 - len);
        let host_bits = !(u32::MAX << (32 - base_len));
        let prefix = (base | ((h >> 16) as u32 & host_bits)) & mask;
        let port = ((h >> 48) % u64::from(nports)) as u16;
        (prefix, len, Route { port, gateway: 0 })
    })
}

/// A configured table as the [`FibReuse`] slot keeps it: the argument
/// list that built it and the three fields `configure` fills.
struct Fib {
    args: Args,
    trie: Arc<RadixTrie>,
    routes: u64,
    max_port: u16,
}

#[derive(Default)]
struct FibSlot {
    fib: Option<Fib>,
    built: u64,
    reused: u64,
}

thread_local! {
    /// The last `SYNTH` table configured on this thread while a
    /// [`FibReuse`] scope is open; `None` outside one.
    static FIB_SLOT: RefCell<Option<FibSlot>> = const { RefCell::new(None) };
}

/// While one of these is alive, a [`LookupIpRoute`] configured on this
/// thread with a `SYNTH` argument list equal to the previous one's takes
/// over that table instead of inserting the prefixes again; a different
/// list replaces the table held. Dropping the scope frees it, so a
/// thread retains at most one table, and none outside a scope.
///
/// A table is a pure function of its argument list, and a sweep runs the
/// same million-route router several times (4-KiB and hugepage tables,
/// one graph per queue, the profiling pre-run). The scope is the sweep
/// worker's, not the process's, so a stand-alone run still pays for and
/// reports its own build, and no table outlives the sweep.
#[derive(Debug)]
pub struct FibReuse(());

impl FibReuse {
    /// Opens the scope on the calling thread.
    pub fn open() -> Self {
        FIB_SLOT.with(|s| {
            s.borrow_mut().get_or_insert_with(FibSlot::default);
        });
        FibReuse(())
    }

    /// `SYNTH` tables `(built, taken over)` on this thread since the
    /// scope opened.
    pub fn counts(&self) -> (u64, u64) {
        FIB_SLOT.with(|s| s.borrow().as_ref().map_or((0, 0), |s| (s.built, s.reused)))
    }

    /// Whether the calling thread is holding a table for the next
    /// configure.
    pub fn holds_table() -> bool {
        FIB_SLOT.with(|s| s.borrow().as_ref().is_some_and(|s| s.fib.is_some()))
    }
}

impl Drop for FibReuse {
    fn drop(&mut self) {
        FIB_SLOT.with(|s| *s.borrow_mut() = None);
    }
}

impl Element for LookupIpRoute {
    fn class_name(&self) -> &'static str {
        "LookupIPRoute"
    }

    fn configure(&mut self, args: &Args) -> Result<(), ConfigError> {
        // Only a whole table changes hands: into an element that holds
        // no route yet, for an argument list that built one before.
        let synth =
            self.routes == 0 && args.items.iter().any(|a| a.key.as_deref() == Some("SYNTH"));
        if synth {
            let held = FIB_SLOT.with(|s| {
                let mut s = s.borrow_mut();
                let slot = s.as_mut()?;
                // A table for other arguments goes before its
                // replacement is built, never after.
                slot.fib.take_if(|f| f.args != *args);
                let fib = slot.fib.as_ref()?;
                slot.reused += 1;
                Some((Arc::clone(&fib.trie), fib.routes, fib.max_port))
            });
            if let Some(table) = held {
                (self.trie, self.routes, self.max_port) = table;
                return Ok(());
            }
        }
        for a in &args.items {
            let bad = |m: String| ConfigError::Element {
                element: String::new(),
                message: m,
            };
            if a.key.as_deref() == Some("SYNTH") {
                // SYNTH "count [seed [nports]]": bulk synthetic routes.
                let mut it = a.value.split_whitespace();
                let count: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(format!("bad SYNTH count in {:?}", a.value)))?;
                let seed: u64 = match it.next() {
                    None => 0x5EED,
                    Some(v) => v
                        .parse()
                        .map_err(|_| bad(format!("bad SYNTH seed in {:?}", a.value)))?,
                };
                let nports: u16 = match it.next() {
                    None => 1,
                    Some(v) => v
                        .parse()
                        .map_err(|_| bad(format!("bad SYNTH nports in {:?}", a.value)))?,
                };
                if it.next().is_some() {
                    return Err(bad(format!("SYNTH takes at most 3 fields: {:?}", a.value)));
                }
                if count > MAX_SYNTH_ROUTES {
                    return Err(bad(format!(
                        "SYNTH count {count} exceeds the {MAX_SYNTH_ROUTES}-route cap"
                    )));
                }
                if nports == 0 {
                    return Err(bad(format!(
                        "SYNTH nports must be at least 1: {:?}",
                        a.value
                    )));
                }
                self.synthesize(count, seed, nports);
                continue;
            }
            // Each argument: "CIDR PORT" or "CIDR GW PORT".
            let text = match &a.key {
                Some(k) => format!("{k} {}", a.value),
                None => a.value.clone(),
            };
            let parts: Vec<&str> = text.split_whitespace().collect();
            if parts.len() < 2 || parts.len() > 3 {
                return Err(bad(format!("route {text:?}: expected CIDR [GW] PORT")));
            }
            let (prefix, len) =
                parse_cidr(parts[0]).ok_or_else(|| bad(format!("bad CIDR {:?}", parts[0])))?;
            let (gw, port_text) = if parts.len() == 3 {
                let gw = parse_ip(parts[1]).ok_or_else(|| bad(format!("bad GW {:?}", parts[1])))?;
                (gw, parts[2])
            } else {
                (0, parts[1])
            };
            let port: u16 = port_text
                .parse()
                .map_err(|_| bad(format!("bad port {port_text:?}")))?;
            self.add_route(prefix, len, Route { port, gateway: gw });
        }
        if self.trie.node_count() <= 1 {
            return Err(ConfigError::Element {
                element: String::new(),
                message: "LookupIPRoute needs at least one route".into(),
            });
        }
        if synth {
            FIB_SLOT.with(|s| {
                if let Some(slot) = s.borrow_mut().as_mut() {
                    slot.built += 1;
                    slot.fib = Some(Fib {
                        args: args.clone(),
                        trie: Arc::clone(&self.trie),
                        routes: self.routes,
                        max_port: self.max_port,
                    });
                }
            });
        }
        Ok(())
    }

    fn setup(&mut self, space: &mut AddressSpace) {
        self.nodes_region = Some(space.alloc(self.trie.node_count() as u64 * NODE_BYTES));
    }

    fn n_outputs(&self) -> u16 {
        self.max_port + 1
    }

    fn param_loads(&self) -> u32 {
        1
    }

    fn process(&mut self, ctx: &mut Ctx<'_>, pkt: &mut Pkt<'_>) -> Action {
        if pkt.len < ETHER_LEN + 20 {
            return Action::Drop;
        }
        ctx.read_data(pkt, (ETHER_LEN + 16) as u64, 4);
        let f = pkt.frame();
        let dst = u32::from_be_bytes([
            f[ETHER_LEN + 16],
            f[ETHER_LEN + 17],
            f[ETHER_LEN + 18],
            f[ETHER_LEN + 19],
        ]);
        let region = self.nodes_region.expect("setup() ran before process()");
        let mut visited = 0u64;
        let result = self.trie.lookup_visit(dst, |node| {
            visited += 1;
            ctx.cost += ctx.mem.access(
                ctx.core,
                region.base + u64::from(node) * NODE_BYTES,
                NODE_BYTES,
                AccessKind::Load,
            );
        });
        ctx.compute(12 + visited * 3);
        self.lookups += 1;
        self.max_walk = self.max_walk.max(visited);
        match result {
            Some(route) => {
                self.hits += 1;
                let next_hop = if route.gateway != 0 {
                    route.gateway
                } else {
                    dst
                };
                pkt.annos.dst_ip = next_hop.to_be_bytes();
                ctx.write_meta(pkt, "dst_ip_anno");
                pkt.annos.paint = route.port as u8;
                ctx.write_meta(pkt, "paint_anno");
                Action::Forward(route.port)
            }
            None => {
                self.no_route += 1;
                ctx.touch_state(0, 8, AccessKind::Store);
                Action::Drop
            }
        }
    }

    fn table_stats(&self) -> Option<TableStats> {
        Some(TableStats {
            name: String::new(),
            kind: "trie",
            capacity: self.trie.node_count() as u64,
            occupancy: self.routes,
            lookups: self.lookups,
            hits: self.hits,
            insertions: self.routes,
            expiries: 0,
            evictions: 0,
            displacements: 0,
            max_chain: self.max_walk,
        })
    }

    fn table_regions(&self) -> Vec<Region> {
        self.nodes_region.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_click::{Annos, ExecPlan, MetadataModel};
    use pm_dpdk::RxDesc;
    use pm_mem::MemoryHierarchy;
    use pm_packet::builder::PacketBuilder;

    fn element(routes: &str) -> LookupIpRoute {
        let mut el = LookupIpRoute::default();
        el.configure(&Args::parse(routes)).unwrap();
        el.setup(&mut AddressSpace::new());
        el
    }

    fn route_packet(el: &mut LookupIpRoute, dst: [u8; 4]) -> (Action, Annos) {
        let mut f = PacketBuilder::tcp().dst_ip(dst).build();
        let mut mem = MemoryHierarchy::skylake(1);
        let plan = ExecPlan::vanilla(MetadataModel::Copying);
        let mut ctx = Ctx::new(0, &mut mem, &plan);
        ctx.state = pm_mem::Region {
            base: 0x700,
            size: 64,
        };
        let len = f.len();
        let mut pkt = Pkt {
            data: &mut f,
            len,
            desc: RxDesc {
                buf_id: 0,
                len: len as u32,
                rss_hash: 0,
                arrival: pm_sim::SimTime::ZERO,
                gen: pm_sim::SimTime::ZERO,
                seq: 0,
                data_addr: 0x10_000,
                meta_addr: 0x20_000,
                xslot: None,
            },
            meta_addr: 0x20_000,
            annos: Annos::default(),
        };
        let a = el.process(&mut ctx, &mut pkt);
        (a, pkt.annos)
    }

    #[test]
    fn routes_by_longest_prefix() {
        let mut el = element("0.0.0.0/0 0, 10.0.0.0/8 1, 10.1.0.0/16 10.1.0.254 2");
        assert_eq!(el.n_outputs(), 3);

        let (a, an) = route_packet(&mut el, [8, 8, 8, 8]);
        assert_eq!(a, Action::Forward(0));
        assert_eq!(an.dst_ip, [8, 8, 8, 8], "no gateway: next hop = dst");

        let (a, _) = route_packet(&mut el, [10, 200, 0, 1]);
        assert_eq!(a, Action::Forward(1));

        let (a, an) = route_packet(&mut el, [10, 1, 42, 42]);
        assert_eq!(a, Action::Forward(2));
        assert_eq!(an.dst_ip, [10, 1, 0, 254], "gateway becomes next hop");
        assert_eq!(an.paint, 2);
    }

    #[test]
    fn no_route_drops() {
        let mut el = element("10.0.0.0/8 1");
        let (a, _) = route_packet(&mut el, [11, 0, 0, 1]);
        assert_eq!(a, Action::Drop);
        assert_eq!(el.no_route, 1);
    }

    #[test]
    fn config_errors() {
        let mut el = LookupIpRoute::default();
        assert!(el.configure(&Args::parse("")).is_err());
        assert!(el.configure(&Args::parse("10.0.0.0/8")).is_err());
        assert!(el.configure(&Args::parse("999.0.0.0/8 1")).is_err());
        assert!(el.configure(&Args::parse("10.0.0.0/8 bad.gw 1")).is_err());
    }

    #[test]
    fn synth_routes_are_deterministic_and_routable() {
        let mut a = element("0.0.0.0/0 0, SYNTH 5000 42 4");
        let b = element("0.0.0.0/0 0, SYNTH 5000 42 4");
        assert_eq!(a.routes, 5001);
        assert_eq!(
            a.trie.node_count(),
            b.trie.node_count(),
            "same seed, same trie"
        );
        assert!(a.n_outputs() >= 4, "ports spread over nports");
        // Workload-family destinations resolve to a synthetic prefix,
        // not just the default route, often enough to matter.
        let mut specific = 0;
        for i in 0..256u32 {
            let dst = [10, (i % 256) as u8, (i / 7) as u8, 1];
            let (act, _) = route_packet(&mut a, dst);
            if act != Action::Forward(0) {
                specific += 1;
            }
        }
        assert!(specific > 0, "some 10/8 traffic hits synthetic routes");
        let stats = a.table_stats().unwrap();
        assert_eq!(stats.kind, "trie");
        assert_eq!(stats.occupancy, 5001);
        assert!(stats.capacity > 5001, "trie allocates interior nodes");
        assert!(stats.max_chain > 0 && stats.max_chain <= 33);
        assert_eq!(a.table_regions().len(), 1);
    }

    #[test]
    fn synth_config_errors() {
        let mut el = LookupIpRoute::default();
        assert!(el.configure(&Args::parse("SYNTH nope")).is_err());
        let mut el = LookupIpRoute::default();
        assert!(el.configure(&Args::parse("SYNTH 10 bad")).is_err());
        let mut el = LookupIpRoute::default();
        assert!(el
            .configure(&Args::parse("SYNTH 10 1 2 3, 0.0.0.0/0 0"))
            .is_err());
    }

    #[test]
    fn synth_count_and_nports_are_bounded() {
        let err = |text: &str| {
            let mut el = LookupIpRoute::default();
            let e = el.configure(&Args::parse(text)).unwrap_err();
            assert_eq!(el.routes, 0, "{text}: rejected before any insert");
            e.to_string()
        };
        let over = format!("SYNTH {}", MAX_SYNTH_ROUTES + 1);
        assert!(err(&over).contains("route cap"), "{}", err(&over));
        assert!(err(&format!("SYNTH {}", u64::MAX)).contains("route cap"));
        assert!(err("SYNTH 10 1 0").contains("nports must be at least 1"));
        // The cap itself and one port are legal (checked at a size a
        // unit test can afford: the bound is on the parsed number).
        const { assert!(MAX_SYNTH_ROUTES >= 10_000_000) };
        let mut el = LookupIpRoute::default();
        el.configure(&Args::parse("SYNTH 100 1 1")).unwrap();
        assert_eq!((el.routes, el.n_outputs()), (100, 1));
    }

    const SYNTH_ARGS: &str = "0.0.0.0/0 0, SYNTH 5000 42 4";

    #[test]
    fn fib_is_handed_over_only_inside_a_scope_and_only_for_equal_args() {
        assert!(!FibReuse::holds_table());
        let outside = element(SYNTH_ARGS);
        assert!(!FibReuse::holds_table(), "nothing is kept outside a scope");

        let scope = FibReuse::open();
        let donor = element(SYNTH_ARGS);
        assert_eq!(scope.counts(), (1, 0));
        assert!(FibReuse::holds_table());
        let taker = element(SYNTH_ARGS);
        assert_eq!(scope.counts(), (1, 1));
        assert!(Arc::ptr_eq(donor.fib(), taker.fib()), "one table, shared");
        assert_eq!(
            taker.fib(),
            outside.fib(),
            "== a fresh build, node for node"
        );
        assert_eq!(
            (taker.routes, taker.n_outputs(), taker.table_stats()),
            (outside.routes, outside.n_outputs(), outside.table_stats())
        );

        // Other arguments build their own table, which replaces the one
        // held; a table without SYNTH neither takes nor replaces.
        let plain = element("0.0.0.0/0 0, 10.0.0.0/8 1");
        assert_eq!(scope.counts(), (1, 1));
        assert_eq!(plain.routes, 2);
        let other = element("0.0.0.0/0 0, SYNTH 5000 43 4");
        assert_eq!(scope.counts(), (2, 1));
        assert_ne!(other.fib(), donor.fib());
        drop((donor, taker));
        let again = element(SYNTH_ARGS);
        assert_eq!(scope.counts(), (3, 1), "the first table was replaced");
        assert_eq!(again.fib(), outside.fib());

        // An element that already holds routes configures on top of them
        // and stays out of the hand-over.
        let mut seeded = LookupIpRoute::default();
        seeded.add_route(
            0x0b00_0000,
            8,
            Route {
                port: 9,
                gateway: 0,
            },
        );
        seeded.configure(&Args::parse(SYNTH_ARGS)).unwrap();
        assert_eq!(scope.counts(), (3, 1));
        assert_eq!(seeded.routes, again.routes + 1);

        drop(scope);
        assert!(!FibReuse::holds_table(), "the scope's end frees the slot");
        assert_eq!(
            Arc::strong_count(again.fib()),
            1,
            "only the element holds it"
        );
    }

    #[test]
    fn add_route_after_a_hand_over_leaves_the_donor_untouched() {
        let _scope = FibReuse::open();
        let mut donor = element(SYNTH_ARGS);
        let mut taker = element(SYNTH_ARGS);
        let fresh = donor.fib().as_ref().clone();
        let extra = Route {
            port: 7,
            gateway: 0,
        };
        taker.add_route(0x0b00_0000, 8, extra);
        assert_eq!(**donor.fib(), fresh, "the donor's table did not move");
        assert_ne!(taker.fib(), donor.fib());
        assert_eq!(taker.routes, donor.routes + 1);
        assert_eq!(
            route_packet(&mut taker, [11, 1, 2, 3]).0,
            Action::Forward(7)
        );
        assert_eq!(
            route_packet(&mut donor, [11, 1, 2, 3]).0,
            Action::Forward(0)
        );
        // And the table still held is the unmodified one.
        let third = element(SYNTH_ARGS);
        assert_eq!(**third.fib(), fresh);
    }

    #[test]
    fn lookup_charges_memory() {
        let mut el = element("0.0.0.0/0 0, 192.168.0.0/16 1");
        let mut mem = MemoryHierarchy::skylake(1);
        let before = mem.counters().loads;
        {
            let plan = ExecPlan::vanilla(MetadataModel::Copying);
            let mut ctx = Ctx::new(0, &mut mem, &plan);
            ctx.state = pm_mem::Region {
                base: 0x700,
                size: 64,
            };
            let mut f = PacketBuilder::tcp().dst_ip([192, 168, 3, 4]).build();
            let len = f.len();
            let mut pkt = Pkt {
                data: &mut f,
                len,
                desc: RxDesc {
                    buf_id: 0,
                    len: len as u32,
                    rss_hash: 0,
                    arrival: pm_sim::SimTime::ZERO,
                    gen: pm_sim::SimTime::ZERO,
                    seq: 0,
                    data_addr: 0x10_000,
                    meta_addr: 0x20_000,
                    xslot: None,
                },
                meta_addr: 0x20_000,
                annos: Annos::default(),
            };
            el.process(&mut ctx, &mut pkt);
        }
        assert!(
            mem.counters().loads > before + 2,
            "trie walk must charge node loads"
        );
    }
}
