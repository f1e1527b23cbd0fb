//! A set-associative LRU cache model.
//!
//! Replacement is true LRU, implemented *positionally*: each set stores
//! its tags in move-to-front recency order (most-recent first), each
//! slot packing the tag with its physical way index. A hit rotates
//! its slot to the front; the LRU victim is simply the furthest-back
//! slot, so there is no timestamp array, no global tick counter, and no
//! per-miss victim scan over stamps. The common case — re-touching the
//! most recently used line — is a single compare, and the hit scan is a
//! branch-free sweep over contiguous tags. This is behaviorally
//! identical to the original per-way timestamp scheme, which the
//! integration-test crate keeps as its reference model
//! (`tests/src/classic.rs`) and drives lock-step against this one to
//! prove it.
//!
//! Physical way indexes matter because allocation can be restricted to a
//! sub-range of the ways in each set, which models Intel DDIO: DMA
//! writes may only allocate into a configurable subset of LLC ways (the
//! paper sets `IIO LLC WAYS` to eight bits, §4 *Testbed*). A line never
//! changes ways over its lifetime — only its recency position moves.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (64 everywhere in this workspace).
    pub line_bytes: usize,
}

impl CacheParams {
    /// Creates a parameter set.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes` is a multiple of `assoc * line_bytes`
    /// and the resulting set count is a power of two.
    pub fn new(size_bytes: usize, assoc: usize, line_bytes: usize) -> Self {
        assert!(assoc > 0 && line_bytes > 0);
        assert_eq!(
            size_bytes % (assoc * line_bytes),
            0,
            "capacity must divide evenly into sets"
        );
        let sets = size_bytes / (assoc * line_bytes);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheParams {
            size_bytes,
            assoc,
            line_bytes,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Bits of a packed slot entry used for the physical way index.
const WAY_BITS: u32 = 4;
/// Sentinel tag marking an empty slot (all tag bits set; real tags are
/// derived from the small bump-allocated simulated address space and
/// never come close).
const EMPTY_TAG: u32 = (1 << (32 - WAY_BITS)) - 1;
/// Packs a set-local tag and a physical way index into one slot word.
#[inline]
fn pack(tag: u32, way: u32) -> u32 {
    (tag << WAY_BITS) | way
}

/// One pristine set: every slot empty, slot `i` holding way `i`. Built
/// once and copied per set — a per-slot `i % assoc` over the LLC's 360 k
/// slots was a visible share of every short run.
fn empty_row(assoc: usize) -> Vec<u32> {
    (0..assoc as u32).map(|w| pack(EMPTY_TAG, w)).collect()
}

/// A set-associative cache with LRU replacement (move-to-front order).
///
/// Addresses passed to the access methods are **byte addresses**; the
/// cache derives the line address internally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    /// Number of set-index bits (`set_mask.count_ones()`).
    set_bits: u32,
    /// `sets * assoc` packed slots, row-major by set, stored in recency
    /// order within each set: slot 0 is the MRU. Each slot packs the
    /// line's set-local tag (the line address with the set-index bits
    /// stripped) in the high 28 bits and its physical way index in the
    /// low 4 — one 32-bit word per slot, so an access touches a single
    /// compact row in the *host's* caches, and a rotation moves tag and
    /// way together (a line keeps its way while its recency position
    /// moves). The hierarchy and TLB build their levels through
    /// [`Self::covering`], which checks the tag range against
    /// [`crate::ADDR_LIMIT`] once at construction, so the per-access
    /// check is a `debug_assert!`.
    slots: Vec<u32>,
    /// Per-set bitmask of empty physical ways; a fill takes the lowest
    /// one in its allowed range with a mask and a `trailing_zeros`, and a
    /// full set skips the empty-way probe entirely.
    empty: Vec<u16>,
}

/// Result of a fill: whether it hit, and any line evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// True if the line was already present.
    pub hit: bool,
    /// Line address (byte address of line start) evicted by this fill.
    pub evicted: Option<u64>,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 16 (way indexes are packed
    /// into four bits of each slot word).
    pub fn new(p: CacheParams) -> Self {
        let sets = p.sets();
        assert!(
            p.assoc <= 1 << WAY_BITS,
            "associativity too large for packed way index"
        );
        SetAssocCache {
            assoc: p.assoc,
            set_shift: p.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            set_bits: (sets - 1).count_ones(),
            slots: empty_row(p.assoc).repeat(sets),
            empty: vec![Self::all_ways(p.assoc); sets],
        }
    }

    /// [`Self::new`], for a cache that must represent every byte address
    /// below `limit` exactly.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has too few sets: some address below
    /// `limit` would need a tag that does not fit a slot word (it would
    /// alias the empty-slot sentinel).
    pub fn covering(p: CacheParams, limit: u64) -> Self {
        let c = Self::new(p);
        assert!(
            u64::from(EMPTY_TAG) << (c.set_bits + c.set_shift) >= limit,
            "too few sets to tag every address below {limit:#x}"
        );
        c
    }

    /// The `empty` mask of a pristine set.
    fn all_ways(assoc: usize) -> u16 {
        ((1u32 << assoc) - 1) as u16
    }

    /// Splits `addr` into its set index and set-local tag.
    #[inline]
    fn set_of(&self, addr: u64) -> (u32, usize) {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_bits;
        debug_assert!(tag < u64::from(EMPTY_TAG), "address out of tag range");
        (tag as u32, set)
    }

    /// Reconstructs a line's byte address from its set and stored tag.
    #[inline]
    fn line_addr(&self, tag: u32, set: usize) -> u64 {
        ((u64::from(tag) << self.set_bits) | set as u64) << self.set_shift
    }

    /// Accesses the line containing `addr`, allocating it on miss (over
    /// the full associativity). Returns the fill outcome.
    #[inline]
    pub fn access(&mut self, addr: u64) -> FillOutcome {
        if self.access_mru(addr) {
            return FillOutcome {
                hit: true,
                evicted: None,
            };
        }
        let (tag, set) = self.set_of(addr);
        self.access_way_range_cold(tag, set, 0, self.assoc)
    }

    /// The MRU fast path of an access, on its own: the most recently used
    /// line sits in slot 0; the runner-up sits in slot 1 and promotes
    /// with a single swap. Returns false — having changed nothing — when
    /// the line is in neither slot; the caller then finishes with
    /// [`Self::access`] (or [`Self::alloc_absent`]).
    #[inline]
    pub fn access_mru(&mut self, addr: u64) -> bool {
        let (tag, set) = self.set_of(addr);
        let base = set * self.assoc;
        if self.slots[base] >> WAY_BITS == tag {
            return true;
        }
        if self.assoc > 1 && self.slots[base + 1] >> WAY_BITS == tag {
            self.slots.swap(base, base + 1);
            return true;
        }
        false
    }

    /// Accesses the line containing `addr`, but on a miss allocate only
    /// within the first `ways` ways of the set (the DDIO restriction).
    ///
    /// A hit in *any* way refreshes LRU normally.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or exceeds the associativity.
    pub fn access_ways(&mut self, addr: u64, ways: usize) -> FillOutcome {
        self.access_way_range(addr, 0, ways)
    }

    /// Accesses the line containing `addr`, allocating on miss only
    /// within ways `lo..hi` of the set. Way partitioning models DDIO:
    /// DMA fills take the low ways, demand fills the rest, so a
    /// streaming NIC cannot evict the application's reused lines.
    ///
    /// A hit in *any* way refreshes LRU normally.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the associativity.
    pub fn access_way_range(&mut self, addr: u64, lo: usize, hi: usize) -> FillOutcome {
        assert!(lo < hi && hi <= self.assoc, "bad way restriction");
        if self.access_mru(addr) {
            return FillOutcome {
                hit: true,
                evicted: None,
            };
        }
        let (tag, set) = self.set_of(addr);
        self.access_way_range_cold(tag, set, lo, hi)
    }

    /// The non-MRU part of an access: scan for a hit beyond slot 0, or
    /// pick a victim and fill. Never inlined: the callers' slot-0/slot-1
    /// compares are what gets inlined into the hierarchy's per-line loops.
    #[inline(never)]
    fn access_way_range_cold(&mut self, tag: u32, set: usize, lo: usize, hi: usize) -> FillOutcome {
        let assoc = self.assoc;
        let base = set * assoc;
        let row = &self.slots[base..base + assoc];

        // Hit path: a contiguous scan in recency order (slot 0 was
        // already checked by the callers' MRU fast path, but re-checking
        // it costs nothing and keeps this routine self-contained).
        if let Some(pos) = row.iter().position(|&e| e >> WAY_BITS == tag) {
            if pos != 0 {
                let row = &mut self.slots[base..base + assoc];
                let e = row[pos];
                row.copy_within(0..pos, 1);
                row[0] = e;
            }
            return FillOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.fill_absent(tag, set, lo, hi)
    }

    /// Allocates the line containing `addr`, which the caller has
    /// **proven absent** (e.g. via the hierarchy's resident filter):
    /// skips the hit scan and goes straight to victim selection.
    /// Identical to [`SetAssocCache::access`] on a missing line.
    #[inline]
    pub fn alloc_absent(&mut self, addr: u64) -> FillOutcome {
        let (tag, set) = self.set_of(addr);
        debug_assert!(!self.probe(addr), "alloc_absent of a resident line");
        self.fill_absent(tag, set, 0, self.assoc)
    }

    /// Victim selection + fill for a line known to miss.
    fn fill_absent(&mut self, tag: u32, set: usize, lo: usize, hi: usize) -> FillOutcome {
        let assoc = self.assoc;
        let base = set * assoc;
        let row = &mut self.slots[base..base + assoc];

        // Prefer the lowest-indexed empty way inside [lo, hi)
        // (matching the classic model's index-order preference); when the
        // set has no usable empty way, evict the least-recent in-range
        // slot — with a full set and a full range that is just the last
        // slot, found with no scan at all.
        let usable = self.empty[set] & (Self::all_ways(hi) & !Self::all_ways(lo));
        let (slot, victim_tag) = if usable != 0 {
            let way = usable.trailing_zeros();
            self.empty[set] &= !(1 << way);
            let vacant = pack(EMPTY_TAG, way);
            let slot = row.iter().position(|&e| e == vacant);
            (slot.expect("empty mask out of step with the row"), None)
        } else {
            let mut pos = assoc - 1;
            loop {
                let w = (row[pos] & ((1 << WAY_BITS) - 1)) as usize;
                if w >= lo && w < hi {
                    break;
                }
                pos -= 1;
            }
            (pos, Some(row[pos] >> WAY_BITS))
        };

        // Fill the chosen slot and promote it to the front.
        let w = row[slot] & ((1 << WAY_BITS) - 1);
        row.copy_within(0..slot, 1);
        row[0] = pack(tag, w);
        FillOutcome {
            hit: false,
            evicted: victim_tag.map(|t| self.line_addr(t, set)),
        }
    }

    /// Returns true if the line containing `addr` is resident (no LRU
    /// update, no allocation).
    pub fn probe(&self, addr: u64) -> bool {
        let (tag, set) = self.set_of(addr);
        let base = set * self.assoc;
        self.slots[base..base + self.assoc]
            .iter()
            .any(|&e| e >> WAY_BITS == tag)
    }

    /// Invalidates the line containing `addr` if present. Returns whether
    /// it was present. The emptied slot keeps its recency position and
    /// physical way; empty slots are never LRU victims because the
    /// empty-way probe runs first.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (tag, set) = self.set_of(addr);
        let base = set * self.assoc;
        match self.slots[base..base + self.assoc]
            .iter()
            .position(|&e| e >> WAY_BITS == tag)
        {
            Some(pos) => {
                let e = self.slots[base + pos];
                self.slots[base + pos] = pack(EMPTY_TAG, e & ((1 << WAY_BITS) - 1));
                self.empty[set] |= 1 << (e & ((1 << WAY_BITS) - 1));
                true
            }
            None => false,
        }
    }

    /// Empties the cache, restoring the pristine just-constructed state.
    pub fn flush(&mut self) {
        let row = empty_row(self.assoc);
        for set in self.slots.chunks_exact_mut(self.assoc) {
            set.copy_from_slice(&row);
        }
        self.empty.fill(Self::all_ways(self.assoc));
    }

    /// Number of resident lines (O(capacity); for tests/diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.slots
            .iter()
            .filter(|&&e| e >> WAY_BITS != EMPTY_TAG)
            .count()
    }

    /// The cache's associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways x 64 B = 512 B.
        SetAssocCache::new(CacheParams::new(512, 2, 64))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000).hit);
        assert!(c.access(0x1000).hit);
        assert!(c.access(0x1038).hit, "same line, different byte");
    }

    #[test]
    fn access_mru_hits_only_the_two_front_slots() {
        // 1 set x 4 ways, filled 0,1,2,3 → recency order 3,2,1,0.
        let mut c = SetAssocCache::new(CacheParams::new(256, 4, 64));
        for i in 0..4u64 {
            c.access(i * 64);
        }
        let pristine = c.clone();
        assert!(c.access_mru(3 * 64), "slot 0");
        assert_eq!(c, pristine, "an MRU hit changes nothing");
        assert!(!c.access_mru(64), "slot 2 is not the front");
        assert!(!c.access_mru(9 * 64), "absent line");
        assert_eq!(c, pristine, "a declined access changes nothing");
        assert!(c.access_mru(2 * 64), "slot 1 promotes with a swap");
        let mut twin = pristine;
        twin.access(2 * 64);
        assert_eq!(c, twin, "same state as the full access");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 sets * 64 B = 256 B).
        c.access(0x0000);
        c.access(0x0100);
        c.access(0x0000); // refresh line 0
        let out = c.access(0x0200); // evicts 0x0100, the LRU
        assert_eq!(out.evicted, Some(0x0100));
        assert!(c.probe(0x0000));
        assert!(!c.probe(0x0100));
    }

    #[test]
    fn way_restricted_allocation() {
        let mut c = small();
        // Fill way 0 (restricted) repeatedly: successive DDIO-like fills
        // into the same set must only churn way 0.
        c.access_ways(0x0000, 1);
        c.access_ways(0x0100, 1);
        assert!(!c.probe(0x0000), "restricted fill evicted way-0 line");
        // A full-assoc access may use the other way.
        c.access(0x0200);
        assert!(c.probe(0x0100), "way 1 line survived");
        assert!(c.probe(0x0200));
    }

    #[test]
    fn restricted_hit_refreshes_any_way() {
        let mut c = small();
        c.access(0x0000); // full-assoc fill (way 0)
        c.access(0x0100); // way 1
        let out = c.access_ways(0x0100, 1); // hit even though it sits in way 1
        assert!(out.hit);
    }

    #[test]
    fn restricted_victim_is_least_recent_in_range() {
        // 1 set x 4 ways.
        let mut c = SetAssocCache::new(CacheParams::new(256, 4, 64));
        for i in 0..4u64 {
            c.access(i * 64);
        }
        c.access(0); // refresh way 0 → way 1 now least recent
        let out = c.access_way_range(4 * 64, 0, 2); // may evict way 0 or 1
        assert_eq!(out.evicted, Some(64), "way 1 held the least-recent line");
        assert!(c.probe(0), "refreshed way-0 line survived");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = small();
        c.access(0x40);
        assert!(c.invalidate(0x40));
        assert!(!c.probe(0x40));
        assert!(!c.invalidate(0x40));
    }

    #[test]
    fn invalidated_way_is_refilled_first() {
        // 1 set x 4 ways: invalidating the most-recent way must make it
        // the next allocation target (empty ways trump recency).
        let mut c = SetAssocCache::new(CacheParams::new(256, 4, 64));
        for i in 0..4u64 {
            c.access(i * 64);
        }
        c.invalidate(3 * 64); // way 3, the most recently used
        let out = c.access(4 * 64);
        assert_eq!(out.evicted, None, "fill reuses the emptied way");
        for i in [0u64, 1, 2, 4] {
            assert!(c.probe(i * 64));
        }
    }

    #[test]
    fn empty_way_outside_range_is_not_used() {
        // 1 set x 4 ways: an empty way outside the allowed range must
        // not absorb a restricted fill.
        let mut c = SetAssocCache::new(CacheParams::new(256, 4, 64));
        for i in 0..4u64 {
            c.access(i * 64);
        }
        c.invalidate(3 * 64); // way 3 empty, outside [0, 2)
        let out = c.access_way_range(4 * 64, 0, 2);
        assert_eq!(out.evicted, Some(0), "way 0 was the LRU in range");
        assert!(!c.probe(3 * 64), "way 3 stays empty");
    }

    #[test]
    fn capacity_bounded() {
        let mut c = small();
        for i in 0..1_000 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() <= 8);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for i in 0..4 {
            c.access(i * 64); // four different sets
        }
        for i in 0..4 {
            assert!(c.probe(i * 64));
        }
    }

    #[test]
    fn flush_empties() {
        let mut c = small();
        c.access(0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn flush_restores_pristine_state() {
        let mut c = small();
        for i in 0..57u64 {
            c.access(i * 64);
            if i % 5 == 0 {
                c.access_ways(i * 192, 1);
            }
        }
        c.flush();
        assert_eq!(c, small(), "flushed cache must equal a fresh one");
    }

    #[test]
    #[should_panic(expected = "too few sets")]
    fn covering_rejects_a_geometry_that_would_alias() {
        // One set: tags are whole line numbers, 28 bits of them.
        let _ = SetAssocCache::covering(CacheParams::new(256, 4, 64), crate::ADDR_LIMIT);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = CacheParams::new(3 * 64 * 2, 2, 64);
    }

    #[test]
    #[should_panic(expected = "bad way restriction")]
    fn zero_ways_rejected() {
        small().access_ways(0, 0);
    }
}
