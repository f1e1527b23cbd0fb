//! TLB models (DTLB + STLB).
//!
//! The paper argues that declaring the element graph statically lets the
//! elements live in a contiguous `.data`/arena segment, "potentially
//! resulting in a less fragmented access pattern and fewer translation
//! lookaside buffer (TLB) misses" (§3.2.1). The simulator therefore
//! tracks page translations: scattered heap allocations touch many pages;
//! an arena touches few.

use crate::cache::{CacheParams, SetAssocCache};

/// Sentinel for "no page translated yet" in the last-page MRU slot.
/// Never a real page identifier: hierarchy page keys are at most
/// `addr >> 12` or a 2-MiB key with bit 30 set, both far below the
/// all-ones value.
const NO_PAGE: u64 = u64::MAX;

/// A two-level TLB (per-core DTLB backed by a unified STLB).
///
/// Implemented as set-associative caches over page addresses, fronted by
/// a one-entry MRU slot holding the most recently translated page: the
/// dominant access pattern (consecutive touches inside one page) resolves
/// without consulting the DTLB structure at all. The slot is pure
/// memoization — after any translation the page is the DTLB's
/// most-recently-used entry, so a repeat is always a free DTLB hit and
/// skipping the lookup changes no state and no counter except the access
/// count, which the slot maintains itself.
#[derive(Debug, Clone)]
pub struct Tlb {
    page_shift: u32,
    dtlb: SetAssocCache,
    stlb: SetAssocCache,
    dtlb_misses: u64,
    stlb_misses: u64,
    accesses: u64,
    /// The page passed to the most recent [`Tlb::translate_page`] call.
    last_page: u64,
}

/// Where a translation was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbOutcome {
    /// DTLB hit — free.
    Dtlb,
    /// DTLB miss, STLB hit — a few cycles.
    Stlb,
    /// Full page walk.
    Walk,
}

impl Tlb {
    /// Creates a TLB with Skylake-like geometry: 64-entry 4-way DTLB,
    /// 1536-entry 12-way STLB, 4-KiB pages.
    pub fn skylake() -> Self {
        Tlb::new(64, 4, 1536, 12, 12)
    }

    /// Creates a TLB with explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if entries/associativity do not form power-of-two set
    /// counts, or leave too few sets to tag every page key (the
    /// hierarchy's keys stay below 2^31: 4-KiB keys of addresses under
    /// [`crate::ADDR_LIMIT`], or a 2-MiB key with marker bit 30).
    pub fn new(
        dtlb_entries: usize,
        dtlb_assoc: usize,
        stlb_entries: usize,
        stlb_assoc: usize,
        page_shift: u32,
    ) -> Self {
        // Reuse the cache structure with a "line size" of one page-entry
        // (8 bytes, arbitrary — only the set math matters).
        let entry = 8;
        let level = |entries: usize, assoc: usize| {
            // Page keys (< 2^31) are fed to the entry caches as `key * entry`.
            SetAssocCache::covering(
                CacheParams::new(entries * entry, assoc, entry),
                (entry as u64) << 31,
            )
        };
        Tlb {
            page_shift,
            dtlb: level(dtlb_entries, dtlb_assoc),
            stlb: level(stlb_entries, stlb_assoc),
            dtlb_misses: 0,
            stlb_misses: 0,
            accesses: 0,
            last_page: NO_PAGE,
        }
    }

    /// Translates the page containing byte address `addr` (4-KiB pages).
    #[inline]
    pub fn translate(&mut self, addr: u64) -> TlbOutcome {
        self.translate_page(addr >> self.page_shift)
    }

    /// Translates a pre-computed page identifier (callers with mixed
    /// page sizes compute their own keys).
    #[inline]
    pub fn translate_page(&mut self, page: u64) -> TlbOutcome {
        if self.translate_page_mru(page) {
            return TlbOutcome::Dtlb;
        }
        self.accesses += 1;
        self.last_page = page;
        // Feed page numbers (shifted) as "addresses" to the entry caches;
        // multiply by the entry size so the set math sees distinct lines.
        let key = page * 8;
        if self.dtlb.access(key).hit {
            return TlbOutcome::Dtlb;
        }
        self.dtlb_misses += 1;
        if self.stlb.access(key).hit {
            return TlbOutcome::Stlb;
        }
        self.stlb_misses += 1;
        TlbOutcome::Walk
    }

    /// The call-free front of [`Tlb::translate_page`]: completes the
    /// translation (a free DTLB hit) when `page` is the last page — the
    /// previous translation left it the DTLB's MRU entry, so re-touching
    /// it would change nothing — or sits in slot 0/1 of its DTLB set.
    /// Returns false, having changed nothing, otherwise.
    #[inline]
    pub fn translate_page_mru(&mut self, page: u64) -> bool {
        if page != self.last_page {
            if !self.dtlb.access_mru(page * 8) {
                return false;
            }
            self.last_page = page;
        }
        self.accesses += 1;
        true
    }

    /// Fast path for a caller that already knows this translation targets
    /// the same page as the immediately preceding [`Tlb::translate_page`]
    /// call: counts the access and returns. Equivalent to re-translating
    /// that page (a guaranteed free DTLB hit).
    #[inline]
    pub fn repeat_last(&mut self) {
        debug_assert!(self.last_page != NO_PAGE, "no previous translation");
        self.accesses += 1;
    }

    /// Total translations requested.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// DTLB misses (including those that hit STLB).
    pub fn dtlb_misses(&self) -> u64 {
        self.dtlb_misses
    }

    /// Full page walks.
    pub fn stlb_misses(&self) -> u64 {
        self.stlb_misses
    }

    /// Clears all entries and counters.
    pub fn reset(&mut self) {
        self.dtlb.flush();
        self.stlb.flush();
        self.dtlb_misses = 0;
        self.stlb_misses = 0;
        self.accesses = 0;
        self.last_page = NO_PAGE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_walk() {
        let mut t = Tlb::skylake();
        assert_eq!(t.translate(0x1_0000), TlbOutcome::Walk);
        assert_eq!(t.translate(0x1_0040), TlbOutcome::Dtlb);
        assert_eq!(t.translate(0x1_0fff), TlbOutcome::Dtlb);
        assert_eq!(t.translate(0x1_1000), TlbOutcome::Walk, "next page");
    }

    #[test]
    fn small_working_set_stays_in_dtlb() {
        let mut t = Tlb::skylake();
        for p in 0..16u64 {
            t.translate(p << 12);
        }
        let walks_before = t.stlb_misses();
        for _ in 0..100 {
            for p in 0..16u64 {
                assert_eq!(t.translate(p << 12), TlbOutcome::Dtlb);
            }
        }
        assert_eq!(t.stlb_misses(), walks_before);
    }

    #[test]
    fn dtlb_overflow_falls_back_to_stlb() {
        let mut t = Tlb::skylake();
        // Touch 256 pages: way more than the 64-entry DTLB, well within STLB.
        for p in 0..256u64 {
            t.translate(p << 12);
        }
        // Second sweep: DTLB thrashes but STLB holds every page.
        let mut stlb_hits = 0;
        for p in 0..256u64 {
            if t.translate(p << 12) == TlbOutcome::Stlb {
                stlb_hits += 1;
            }
        }
        assert!(stlb_hits > 150, "most should be STLB hits, got {stlb_hits}");
    }

    #[test]
    fn huge_working_set_walks() {
        let mut t = Tlb::skylake();
        for p in 0..8192u64 {
            t.translate(p << 12);
        }
        let walks = t.stlb_misses();
        for p in 0..8192u64 {
            t.translate(p << 12);
        }
        assert!(
            t.stlb_misses() > walks + 4000,
            "second sweep of 8k pages should still walk"
        );
    }

    #[test]
    fn repeat_last_counts_as_dtlb_hit() {
        let mut t = Tlb::skylake();
        assert_eq!(t.translate(0x5000), TlbOutcome::Walk);
        let misses = t.dtlb_misses();
        t.repeat_last();
        assert_eq!(t.accesses(), 2);
        assert_eq!(t.dtlb_misses(), misses, "repeat is a free DTLB hit");
        assert_eq!(t.translate(0x5001), TlbOutcome::Dtlb, "same page memoized");
    }

    #[test]
    fn mru_front_agrees_with_full_translation() {
        // Lock-step against a twin driven only through `translate_page`:
        // the call-free front either completes the translation exactly
        // as the full routine would, or declines without touching state.
        let (mut a, mut b) = (Tlb::skylake(), Tlb::skylake());
        let mut fronted = 0;
        for i in 0..4000u64 {
            let page = (i * 7 + (i >> 3) * 13) % 97;
            let want = b.translate_page(page);
            if a.translate_page_mru(page) {
                assert_eq!(want, TlbOutcome::Dtlb, "page {page}");
                fronted += 1;
            } else {
                assert_eq!(a.translate_page(page), want, "page {page}");
            }
            assert_eq!(a.accesses(), b.accesses());
            assert_eq!(a.dtlb_misses(), b.dtlb_misses());
            assert_eq!(a.stlb_misses(), b.stlb_misses());
        }
        assert_eq!(a.dtlb, b.dtlb);
        assert_eq!(a.stlb, b.stlb);
        assert!(fronted > 1000, "front path barely exercised: {fronted}");
    }

    #[test]
    fn reset_clears() {
        let mut t = Tlb::skylake();
        t.translate(0);
        t.reset();
        assert_eq!(t.accesses(), 0);
        assert_eq!(t.translate(0), TlbOutcome::Walk);
    }
}
