//! The original `Option`-slot cuckoo table, kept as a differential-testing
//! reference.
//!
//! [`CuckooHash`](pm_elements::cuckoo::CuckooHash) used to store each
//! bucket as `[Option<Entry<K, V>>; 4]` in a `Vec` built with every byte
//! written up front; it now packs entries into one zero-initialised byte
//! array behind an occupancy byte per bucket. The two must behave
//! identically — same outcomes, same probed buckets in the same order,
//! same displacement walk and counters — because the simulator charges
//! one cache line per probed bucket, so any drift moves the goldens.
//! `properties.rs::cuckoo_lockstep` drives both through arbitrary
//! insert/update/remove/lookup sequences to prove it. Keep this model
//! faithful to the original semantics: the two hash seeds, the kick RNG
//! seed and the kick limit below are the production table's.

use pm_elements::cuckoo::{InsertOutcome, SLOTS};
use pm_sim::SplitMix64;
use std::hash::{Hash, Hasher};

/// Maximum displacement steps before an insert is declared failed.
const MAX_KICKS: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Entry<K, V> {
    key: K,
    value: V,
}

/// A 2-choice, 4-slot-per-bucket cuckoo map over `Option` slots (the
/// reference model; use [`CuckooHash`](pm_elements::cuckoo::CuckooHash)
/// in real code).
#[derive(Debug, Clone)]
pub struct ClassicCuckoo<K, V> {
    buckets: Vec<[Option<Entry<K, V>>; SLOTS]>,
    mask: u64,
    len: usize,
    kick_rng: SplitMix64,
    displacements: u64,
    max_chain: u64,
    evictions: u64,
}

fn hash_of<K: Hash>(k: &K, seed: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut h);
    k.hash(&mut h);
    h.finish()
}

impl<K: Hash + Eq + Copy, V: Copy> ClassicCuckoo<K, V> {
    /// Creates a table with `n_buckets` buckets (rounded up to a power of
    /// two, at least 2).
    pub fn new(n_buckets: usize) -> Self {
        let n = n_buckets.next_power_of_two().max(2);
        ClassicCuckoo {
            buckets: vec![[None; SLOTS]; n],
            mask: (n - 1) as u64,
            len: 0,
            kick_rng: SplitMix64::new(0xC0C0_0C0C),
            displacements: 0,
            max_chain: 0,
            evictions: 0,
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Displacement steps taken across all inserts so far.
    pub fn displacements(&self) -> u64 {
        self.displacements
    }

    /// Longest single displacement chain any insert has walked.
    pub fn max_chain(&self) -> u64 {
        self.max_chain
    }

    /// Entries lost to the displacement limit.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn bucket_pair(&self, key: &K) -> (usize, usize) {
        let h1 = hash_of(key, 0x9E37_79B9);
        let h2 = hash_of(key, 0x517C_C1B7);
        ((h1 & self.mask) as usize, (h2 & self.mask) as usize)
    }

    /// Looks up `key`, reporting the probed buckets through `probe`: the
    /// first always, the second only when the first misses.
    pub fn lookup_visit(&self, key: &K, mut probe: impl FnMut(usize)) -> Option<V> {
        let (b1, b2) = self.bucket_pair(key);
        probe(b1);
        if let Some(v) = self.scan(b1, key) {
            return Some(v);
        }
        probe(b2);
        self.scan(b2, key)
    }

    fn scan(&self, b: usize, key: &K) -> Option<V> {
        self.buckets[b]
            .iter()
            .flatten()
            .find(|e| e.key == *key)
            .map(|e| e.value)
    }

    fn try_place(&mut self, b: usize, e: Entry<K, V>) -> bool {
        for slot in &mut self.buckets[b] {
            if slot.is_none() {
                *slot = Some(e);
                return true;
            }
        }
        false
    }

    /// Inserts `key → value`, visiting each touched bucket via `probe`.
    pub fn insert_visit(
        &mut self,
        key: K,
        value: V,
        mut probe: impl FnMut(usize),
    ) -> InsertOutcome {
        let (b1, b2) = self.bucket_pair(&key);
        probe(b1);
        probe(b2);
        for b in [b1, b2] {
            for e in self.buckets[b].iter_mut().flatten() {
                if e.key == key {
                    e.value = value;
                    return InsertOutcome::Replaced;
                }
            }
        }
        let mut entry = Entry { key, value };
        if self.try_place(b1, entry) || self.try_place(b2, entry) {
            self.len += 1;
            return InsertOutcome::Inserted;
        }
        let mut b = b1;
        for kick in 0..MAX_KICKS {
            let victim_slot = (self.kick_rng.next_u64() % SLOTS as u64) as usize;
            let victim = self.buckets[b][victim_slot]
                .replace(entry)
                .expect("displacement always targets a full bucket");
            self.displacements += 1;
            entry = victim;
            let (v1, v2) = self.bucket_pair(&entry.key);
            b = if b == v1 { v2 } else { v1 };
            probe(b);
            if self.try_place(b, entry) {
                self.len += 1;
                self.max_chain = self.max_chain.max(kick as u64 + 1);
                return InsertOutcome::Inserted;
            }
        }
        self.max_chain = self.max_chain.max(MAX_KICKS as u64);
        self.evictions += 1;
        InsertOutcome::Full
    }

    /// Applies `f` to the value stored for `key`, if present.
    pub fn update(&mut self, key: &K, f: impl FnOnce(&mut V)) -> bool {
        let (b1, b2) = self.bucket_pair(key);
        for b in [b1, b2] {
            for e in self.buckets[b].iter_mut().flatten() {
                if e.key == *key {
                    f(&mut e.value);
                    return true;
                }
            }
        }
        false
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (b1, b2) = self.bucket_pair(key);
        for b in [b1, b2] {
            for slot in &mut self.buckets[b] {
                if matches!(slot, Some(e) if e.key == *key) {
                    let e = slot.take().expect("matched above");
                    self.len -= 1;
                    return Some(e.value);
                }
            }
        }
        None
    }
}
