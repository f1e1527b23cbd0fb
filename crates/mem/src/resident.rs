//! An exact over-approximation of "lines possibly held by a core cache".
//!
//! DMA writes and inclusive-LLC evictions must invalidate stale copies in
//! every core's private L1/L2 — per-core scans that the DMA path pays for
//! every delivered line even though the vast majority of DMA'd lines were
//! never demand-touched by any core. This filter records every line that
//! is demand- or warm-filled into a private cache; a line absent from the
//! filter is therefore provably absent from every L1/L2, so the
//! invalidation scan can be skipped with bit-identical simulated state.
//!
//! False positives are harmless (the scan runs and finds nothing); the
//! filter only ever skips work that would have been a no-op. Entries are
//! removed when an invalidation scan actually runs for a line, which
//! keeps the set tight around the live private-cache footprint.
//!
//! The same absence proof lets a demand touch of an absent line skip
//! the L1/L2 hit scans and allocate straight away. (The invariant that
//! makes this sound: every private fill inserts its line, and removal
//! happens only through invalidations that also purge the private
//! copies.)
//!
//! Implementation: a plain bitmap indexed by line number. Simulated
//! addresses come from a bump allocator and stay within a few hundred
//! MiB, so the bitmap tops out at a few hundred KiB — one host word
//! test/set per operation, no hashing, no rehash growth, no unsafe.

/// Bitmap of cache-line numbers (`addr >> 6`).
#[derive(Debug, Clone, Default)]
pub(crate) struct ResidentFilter {
    words: Vec<u64>,
}

impl ResidentFilter {
    pub(crate) fn new() -> Self {
        ResidentFilter { words: Vec::new() }
    }

    /// Inserts `line` (a 64-byte-aligned address; idempotent).
    #[inline]
    pub(crate) fn insert(&mut self, line: u64) {
        let idx = (line >> 12) as usize; // line number / 64
        let bit = 1u64 << ((line >> 6) & 63);
        if idx >= self.words.len() {
            self.words.resize(idx + 1 + idx / 2, 0);
        }
        self.words[idx] |= bit;
    }

    /// Whether `line` may be held by a private cache. `false` is a
    /// proof of absence (the insert paths cover every private fill);
    /// `true` only means "possibly".
    #[inline]
    pub(crate) fn contains(&self, line: u64) -> bool {
        let idx = (line >> 12) as usize;
        let bit = 1u64 << ((line >> 6) & 63);
        matches!(self.words.get(idx), Some(w) if w & bit != 0)
    }

    /// Removes `line` if present; returns whether it was present.
    #[inline]
    pub(crate) fn remove(&mut self, line: u64) -> bool {
        let idx = (line >> 12) as usize;
        let bit = 1u64 << ((line >> 6) & 63);
        match self.words.get_mut(idx) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_round_trip() {
        let mut f = ResidentFilter::new();
        for i in 0..1000u64 {
            f.insert(i * 64);
        }
        for i in 0..1000u64 {
            assert!(f.remove(i * 64), "line {i} missing");
        }
        for i in 0..1000u64 {
            assert!(!f.remove(i * 64), "line {i} still present");
        }
    }

    #[test]
    fn idempotent_insert() {
        let mut f = ResidentFilter::new();
        f.insert(0x1000);
        f.insert(0x1000);
        assert!(f.remove(0x1000));
        assert!(!f.remove(0x1000));
    }

    #[test]
    fn absent_lines_report_absent() {
        let mut f = ResidentFilter::new();
        assert!(!f.remove(0));
        f.insert(64 * 1024 * 1024);
        assert!(!f.remove(64 * 1024 * 1024 + 64));
        assert!(f.remove(64 * 1024 * 1024));
    }

    #[test]
    fn distinct_lines_do_not_alias() {
        let mut f = ResidentFilter::new();
        // Neighbouring lines and lines 4 KiB apart share words/indices in
        // ways that must not alias.
        for i in 0..256u64 {
            f.insert(i * 64);
        }
        for i in (0..256u64).step_by(2) {
            assert!(f.remove(i * 64));
        }
        for i in 0..256u64 {
            assert_eq!(f.remove(i * 64), i % 2 == 1, "line {i}");
        }
    }
}
