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

/// A two-level TLB (per-core DTLB backed by a unified STLB) over page
/// keys the caller computes (the hierarchy mixes 4-KiB and 2-MiB pages).
/// Miss counts live in the hierarchy's `MemCounters`.
///
/// Implemented as set-associative caches over page keys, fronted by a
/// one-entry MRU slot holding the most recently translated page: the
/// dominant access pattern (consecutive touches inside one page) resolves
/// without consulting the DTLB structure at all. The slot is pure
/// memoization — after any translation the page is the DTLB's
/// most-recently-used entry, so a repeat is always a free DTLB hit and
/// skipping the lookup changes no state.
#[derive(Debug, Clone)]
pub struct Tlb {
    dtlb: SetAssocCache,
    stlb: SetAssocCache,
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
    /// 1536-entry 12-way STLB.
    pub fn skylake() -> Self {
        Tlb::new(64, 4, 1536, 12)
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
            dtlb: level(dtlb_entries, dtlb_assoc),
            stlb: level(stlb_entries, stlb_assoc),
            last_page: NO_PAGE,
        }
    }

    /// Translates a page key.
    #[inline]
    pub fn translate_page(&mut self, page: u64) -> TlbOutcome {
        if self.translate_page_mru(page) {
            return TlbOutcome::Dtlb;
        }
        self.last_page = page;
        // Feed page numbers (shifted) as "addresses" to the entry caches;
        // multiply by the entry size so the set math sees distinct lines.
        let key = page * 8;
        if self.dtlb.access(key).hit {
            return TlbOutcome::Dtlb;
        }
        if self.stlb.access(key).hit {
            return TlbOutcome::Stlb;
        }
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
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Translates the 4-KiB page holding `addr`.
    fn translate(t: &mut Tlb, addr: u64) -> TlbOutcome {
        t.translate_page(addr >> 12)
    }

    #[test]
    fn same_page_hits_after_walk() {
        let mut t = Tlb::skylake();
        assert_eq!(translate(&mut t, 0x1_0000), TlbOutcome::Walk);
        assert_eq!(translate(&mut t, 0x1_0040), TlbOutcome::Dtlb);
        assert_eq!(translate(&mut t, 0x1_0fff), TlbOutcome::Dtlb);
        assert_eq!(translate(&mut t, 0x1_1000), TlbOutcome::Walk, "next page");
    }

    #[test]
    fn small_working_set_stays_in_dtlb() {
        let mut t = Tlb::skylake();
        for p in 0..16u64 {
            translate(&mut t, p << 12);
        }
        for _ in 0..100 {
            for p in 0..16u64 {
                assert_eq!(translate(&mut t, p << 12), TlbOutcome::Dtlb);
            }
        }
    }

    #[test]
    fn dtlb_overflow_falls_back_to_stlb() {
        let mut t = Tlb::skylake();
        // Touch 256 pages: way more than the 64-entry DTLB, well within STLB.
        for p in 0..256u64 {
            translate(&mut t, p << 12);
        }
        // Second sweep: DTLB thrashes but STLB holds every page.
        let mut stlb_hits = 0;
        for p in 0..256u64 {
            if translate(&mut t, p << 12) == TlbOutcome::Stlb {
                stlb_hits += 1;
            }
        }
        assert!(stlb_hits > 150, "most should be STLB hits, got {stlb_hits}");
    }

    #[test]
    fn huge_working_set_walks() {
        let mut t = Tlb::skylake();
        for p in 0..8192u64 {
            translate(&mut t, p << 12);
        }
        let walks = (0..8192u64)
            .filter(|p| translate(&mut t, p << 12) == TlbOutcome::Walk)
            .count();
        assert!(walks > 4000, "second sweep of 8k pages should still walk");
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
            assert_eq!(a.dtlb, b.dtlb, "DTLB after page {page}");
            assert_eq!(a.stlb, b.stlb, "STLB after page {page}");
            assert_eq!(a.last_page, b.last_page);
        }
        assert!(fronted > 1000, "front path barely exercised: {fronted}");
    }
}
