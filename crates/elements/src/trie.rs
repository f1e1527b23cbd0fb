//! A binary radix trie for IPv4 longest-prefix-match routing.
//!
//! Built from scratch as the routing substrate for `LookupIPRoute`
//! (paper §A.2: "the routing element … does a lookup for each
//! destination IP address"). The trie reports which nodes a lookup
//! visits so the element can charge those accesses to the cache model.

/// A route entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Output port.
    pub port: u16,
    /// Next-hop gateway (0 = directly connected).
    pub gateway: u32,
}

const NONE: u32 = u32::MAX;

/// 16 bytes — the size the element charges per node — so four nodes
/// share a host cache line (`Option<Route>` made it 20).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    children: [u32; 2],
    gateway: u32,
    port: u16,
    has: bool,
}

impl Node {
    const EMPTY: Node = Node {
        children: [NONE, NONE],
        gateway: 0,
        port: 0,
        has: false,
    };

    fn route(&self) -> Option<Route> {
        self.has.then_some(Route {
            port: self.port,
            gateway: self.gateway,
        })
    }
}

/// A binary (one bit per level) radix trie keyed by IPv4 address.
/// Two tries are equal when they hold the same nodes in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RadixTrie {
    nodes: Vec<Node>,
}

impl RadixTrie {
    /// An empty trie (root only).
    pub fn new() -> Self {
        RadixTrie {
            nodes: vec![Node::EMPTY],
        }
    }

    /// Number of nodes (for sizing the charged region).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Inserts `prefix/len → route`, replacing any existing entry.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn insert(&mut self, prefix: u32, len: u8, route: Route) {
        assert!(len <= 32, "prefix length {len} > 32");
        let idx = self.walk(0, prefix, 0, len);
        self.set(idx, route);
    }

    /// Follows `prefix`'s bits `from..to` down from node `idx`, the node
    /// at depth `from` on its path, creating each missing node, and
    /// returns the node at depth `to`.
    fn walk(&mut self, mut idx: usize, prefix: u32, from: u8, to: u8) -> usize {
        for depth in from..to {
            let bit = ((prefix >> (31 - depth)) & 1) as usize;
            let next = self.nodes[idx].children[bit];
            idx = if next == NONE {
                self.nodes.push(Node::EMPTY);
                let new = (self.nodes.len() - 1) as u32;
                self.nodes[idx].children[bit] = new;
                new as usize
            } else {
                next as usize
            };
        }
        idx
    }

    fn set(&mut self, idx: usize, route: Route) {
        let node = &mut self.nodes[idx];
        (node.gateway, node.port, node.has) = (route.gateway, route.port, true);
    }

    /// Longest-prefix-match lookup, invoking `visit` with each node index
    /// walked (root first) so the caller can charge the accesses.
    pub fn lookup_visit(&self, ip: u32, mut visit: impl FnMut(u32)) -> Option<Route> {
        let mut idx = 0usize;
        let mut best = self.nodes[0].route();
        visit(0);
        for depth in 0..32 {
            let bit = ((ip >> (31 - depth)) & 1) as usize;
            let next = self.nodes[idx].children[bit];
            if next == NONE {
                break;
            }
            idx = next as usize;
            visit(next);
            if let Some(r) = self.nodes[idx].route() {
                best = Some(r);
            }
        }
        best
    }

    /// Longest-prefix-match lookup without visit tracking.
    pub fn lookup(&self, ip: u32) -> Option<Route> {
        self.lookup_visit(ip, |_| {})
    }
}

/// Depth of the nodes [`RadixTrie::extend`] indexes by prefix bits.
const INDEX_DEPTH: u8 = 16;

/// Bulk insert of `(prefix, len, route)` triples, in order: the trie it
/// leaves equals one [`RadixTrie::insert`] per triple, node for node.
/// A transient 2¹⁶-entry index from a prefix's top 16 bits to its
/// depth-16 node, filled as walks reach that depth, lets a prefix of 16
/// bits or more start there; it skips only nodes that already exist,
/// so nodes are created in the same order.
impl Extend<(u32, u8, Route)> for RadixTrie {
    fn extend<I: IntoIterator<Item = (u32, u8, Route)>>(&mut self, routes: I) {
        let mut index = vec![NONE; 1 << INDEX_DEPTH];
        for (prefix, len, route) in routes {
            assert!(len <= 32, "prefix length {len} > 32");
            let idx = if len < INDEX_DEPTH {
                self.walk(0, prefix, 0, len)
            } else {
                let at = &mut index[(prefix >> (32 - INDEX_DEPTH)) as usize];
                if *at == NONE {
                    *at = self.walk(0, prefix, 0, INDEX_DEPTH) as u32;
                }
                self.walk(*at as usize, prefix, INDEX_DEPTH, len)
            };
            self.set(idx, route);
        }
    }
}

impl Default for RadixTrie {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses dotted-quad IPv4 text into a u32 (host order of the
/// big-endian address).
pub fn parse_ip(s: &str) -> Option<u32> {
    let mut parts = s.trim().split('.');
    let mut out = 0u32;
    for _ in 0..4 {
        let p: u32 = parts.next()?.parse().ok()?;
        if p > 255 {
            return None;
        }
        out = (out << 8) | p;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(out)
}

/// Parses `a.b.c.d/len` CIDR text.
pub fn parse_cidr(s: &str) -> Option<(u32, u8)> {
    match s.split_once('/') {
        Some((ip, len)) => {
            let len: u8 = len.trim().parse().ok()?;
            if len > 32 {
                return None;
            }
            Some((parse_ip(ip)?, len))
        }
        None => Some((parse_ip(s)?, 32)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(port: u16) -> Route {
        Route { port, gateway: 0 }
    }

    #[test]
    fn host_node_is_the_charged_16_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    fn parse_helpers() {
        assert_eq!(parse_ip("10.0.0.1"), Some(0x0a00_0001));
        assert_eq!(parse_ip("256.0.0.1"), None);
        assert_eq!(parse_ip("1.2.3"), None);
        assert_eq!(parse_cidr("192.168.0.0/16"), Some((0xc0a8_0000, 16)));
        assert_eq!(parse_cidr("8.8.8.8"), Some((0x0808_0808, 32)));
        assert_eq!(parse_cidr("1.0.0.0/33"), None);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = RadixTrie::new();
        t.insert(0, 0, route(0)); // default
        t.insert(0x0a00_0000, 8, route(1)); // 10/8
        t.insert(0x0a01_0000, 16, route(2)); // 10.1/16
        t.insert(0x0a01_0200, 24, route(3)); // 10.1.2/24

        assert_eq!(t.lookup(0x0808_0808).unwrap().port, 0);
        assert_eq!(t.lookup(0x0aff_0001).unwrap().port, 1);
        assert_eq!(t.lookup(0x0a01_ff01).unwrap().port, 2);
        assert_eq!(t.lookup(0x0a01_0242).unwrap().port, 3);
    }

    #[test]
    fn no_default_no_match() {
        let mut t = RadixTrie::new();
        t.insert(0x0a00_0000, 8, route(1));
        assert!(t.lookup(0x0b00_0001).is_none());
        assert!(t.lookup(0x0a00_0001).is_some());
    }

    #[test]
    fn host_route() {
        let mut t = RadixTrie::new();
        t.insert(0, 0, route(0));
        t.insert(0x0a00_0001, 32, route(9));
        assert_eq!(t.lookup(0x0a00_0001).unwrap().port, 9);
        assert_eq!(t.lookup(0x0a00_0002).unwrap().port, 0);
    }

    #[test]
    fn replace_route() {
        let mut t = RadixTrie::new();
        t.insert(0x0a00_0000, 8, route(1));
        t.insert(0x0a00_0000, 8, route(7));
        assert_eq!(t.lookup(0x0a00_0005).unwrap().port, 7);
    }

    #[test]
    fn visit_depth_bounded_by_prefix() {
        let mut t = RadixTrie::new();
        t.insert(0, 0, route(0));
        t.insert(0x0a00_0000, 8, route(1));
        let mut visited = Vec::new();
        t.lookup_visit(0x0a00_0001, |n| visited.push(n));
        assert!(visited.len() <= 9, "8-bit prefix: at most 9 nodes");
        assert_eq!(visited[0], 0, "root first");
    }

    #[test]
    fn exhaustive_against_linear_scan() {
        // Differential check over a small universe.
        let prefixes = [
            (0x0000_0000u32, 0u8, 0u16),
            (0x8000_0000, 1, 1),
            (0xc000_0000, 2, 2),
            (0xc080_0000, 9, 3),
        ];
        let mut t = RadixTrie::new();
        for &(p, l, port) in &prefixes {
            t.insert(p, l, route(port));
        }
        let brute = |ip: u32| {
            prefixes
                .iter()
                .filter(|&&(p, l, _)| {
                    let mask = if l == 0 { 0 } else { u32::MAX << (32 - l) };
                    ip & mask == p & mask
                })
                .max_by_key(|&&(_, l, _)| l)
                .map(|&(_, _, port)| port)
        };
        for ip in (0..=u32::MAX).step_by(7_777_777) {
            assert_eq!(t.lookup(ip).map(|r| r.port), brute(ip), "ip={ip:#x}");
        }
    }
}
