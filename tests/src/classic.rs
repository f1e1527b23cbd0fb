//! The original timestamp-LRU cache model, kept as a differential-testing
//! reference.
//!
//! [`SetAssocCache`](pm_mem::SetAssocCache) used to implement LRU with a
//! per-way `stamps` array and a global `tick` counter; it now uses
//! move-to-front recency order instead (positional LRU). The two are
//! behaviorally identical — same hits, misses, and evictions for any
//! access sequence — and `properties.rs::mtf_cache` drives both
//! lock-step over arbitrary access/way-range/invalidate/flush sequences
//! to prove it. Keep this model byte-for-byte faithful to the original
//! semantics; it exists so the fast path can never drift silently. It
//! lives in the test crate so that no production crate depends on it.
//!
//! The one deliberate difference from the historical code: `flush`
//! resets `tick`, so a flushed cache is indistinguishable from a fresh
//! one (the old code leaked the pre-flush tick value — harmless, since
//! only *relative* stamp order matters, but untidy).

use pm_mem::cache::{CacheParams, FillOutcome};

const EMPTY: u64 = u64::MAX;

/// A set-associative cache with timestamp-based LRU replacement (the
/// reference model; use [`SetAssocCache`](pm_mem::SetAssocCache) in real
/// code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassicSetAssocCache {
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    /// `sets * assoc` tags (line addresses), row-major by set.
    tags: Vec<u64>,
    /// LRU timestamps parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
}

impl ClassicSetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(p: CacheParams) -> Self {
        let sets = p.sets();
        ClassicSetAssocCache {
            assoc: p.assoc,
            set_shift: p.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tags: vec![EMPTY; sets * p.assoc],
            stamps: vec![0; sets * p.assoc],
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, addr: u64) -> (u64, usize) {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        (line, set)
    }

    /// Accesses the line containing `addr`, allocating over the full
    /// associativity on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> FillOutcome {
        self.access_ways(addr, self.assoc)
    }

    /// Accesses with allocation restricted to the first `ways` ways.
    pub fn access_ways(&mut self, addr: u64, ways: usize) -> FillOutcome {
        self.access_way_range(addr, 0, ways)
    }

    /// Accesses with allocation restricted to ways `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or exceeds the associativity.
    pub fn access_way_range(&mut self, addr: u64, lo: usize, hi: usize) -> FillOutcome {
        assert!(lo < hi && hi <= self.assoc, "bad way restriction");
        let (line, set) = self.set_of(addr);
        let base = set * self.assoc;
        self.tick += 1;

        // Hit path: scan the whole set.
        for w in 0..self.assoc {
            if self.tags[base + w] == line {
                self.stamps[base + w] = self.tick;
                return FillOutcome {
                    hit: true,
                    evicted: None,
                };
            }
        }

        // Miss: pick the LRU way within the allowed range.
        let mut victim = lo;
        let mut oldest = u64::MAX;
        for w in lo..hi {
            let idx = base + w;
            if self.tags[idx] == EMPTY {
                victim = w;
                break;
            }
            if self.stamps[idx] < oldest {
                oldest = self.stamps[idx];
                victim = w;
            }
        }
        let idx = base + victim;
        let evicted = if self.tags[idx] == EMPTY {
            None
        } else {
            Some(self.tags[idx] << self.set_shift)
        };
        self.tags[idx] = line;
        self.stamps[idx] = self.tick;
        FillOutcome {
            hit: false,
            evicted,
        }
    }

    /// Returns true if the line containing `addr` is resident.
    pub fn probe(&self, addr: u64) -> bool {
        let (line, set) = self.set_of(addr);
        let base = set * self.assoc;
        (0..self.assoc).any(|w| self.tags[base + w] == line)
    }

    /// Invalidates the line containing `addr` if present. Returns whether
    /// it was present.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let (line, set) = self.set_of(addr);
        let base = set * self.assoc;
        for w in 0..self.assoc {
            if self.tags[base + w] == line {
                self.tags[base + w] = EMPTY;
                self.stamps[base + w] = 0;
                return true;
            }
        }
        false
    }

    /// Empties the cache, restoring the pristine just-constructed state
    /// (including the tick counter — see the module docs).
    pub fn flush(&mut self) {
        self.tags.iter_mut().for_each(|t| *t = EMPTY);
        self.stamps.iter_mut().for_each(|s| *s = 0);
        self.tick = 0;
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// The cache's associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ClassicSetAssocCache {
        ClassicSetAssocCache::new(CacheParams::new(512, 2, 64))
    }

    #[test]
    fn classic_lru_semantics_hold() {
        let mut c = small();
        c.access(0x0000);
        c.access(0x0100);
        c.access(0x0000);
        let out = c.access(0x0200);
        assert_eq!(out.evicted, Some(0x0100));
    }

    #[test]
    fn flush_restores_pristine_state() {
        let mut c = small();
        for i in 0..37u64 {
            c.access(i * 64);
        }
        c.flush();
        assert_eq!(c, small(), "flushed classic cache must equal a fresh one");
    }
}
