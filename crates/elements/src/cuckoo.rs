//! A bucketized cuckoo hash table.
//!
//! The paper's NAT "uses the DPDK Cuckoo hash table, resulting in more
//! lookups and higher memory usage" (§A.3). This is a from-scratch
//! 2-choice, 4-slot-per-bucket cuckoo table in the style of
//! `rte_hash`: lookups probe at most two buckets (one cache line each);
//! inserts displace entries along a bounded random walk.
//!
//! The host table is one zero-initialised byte array. Each bucket is an
//! occupancy byte (bit `s` set when slot `s` holds an entry) followed by
//! [`SLOTS`] fixed-width `(key, value)` encodings ([`Packed`]), so a
//! NAT bucket is 1 + 4 × (13 + 10) = 93 B. The array comes from
//! `alloc_zeroed`, so a bucket no insert ever touched stays an unmapped
//! zero page and costs no resident memory.

use pm_sim::SplitMix64;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;

/// Slots per bucket (one 64-B cache line of entries).
pub const SLOTS: usize = 4;
/// Maximum displacement steps before an insert is declared failed.
const MAX_KICKS: usize = 64;

/// A fixed-width little-endian byte encoding of a table key or value.
///
/// `pack` must be injective: two values pack to the same bytes exactly
/// when they are equal, because the table compares keys as bytes.
pub trait Packed: Copy {
    /// The encoding, a `[u8; SIZE]`.
    type Bytes: AsRef<[u8]>;
    /// Encoded width in bytes.
    const SIZE: usize;
    /// Encodes `self`.
    fn pack(&self) -> Self::Bytes;
    /// Decodes the first [`SIZE`](Packed::SIZE) bytes of `bytes`.
    fn unpack(bytes: &[u8]) -> Self;
}

/// The first `N` bytes of `bytes` as an array.
///
/// # Panics
///
/// Panics if `bytes` is shorter than `N`.
pub(crate) fn array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes[..N].try_into().expect("a slice of exactly N bytes")
}

macro_rules! packed_int {
    ($($t:ty),*) => {$(
        impl Packed for $t {
            type Bytes = [u8; std::mem::size_of::<$t>()];
            const SIZE: usize = std::mem::size_of::<$t>();
            fn pack(&self) -> Self::Bytes {
                self.to_le_bytes()
            }
            fn unpack(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(array(bytes))
            }
        }
    )*};
}

packed_int!(u16, u32, u64);

/// A cuckoo hash map with fixed-width keys and values.
#[derive(Debug, Clone)]
pub struct CuckooHash<K, V> {
    /// `n_buckets` buckets of `Self::STRIDE` bytes each.
    bytes: Vec<u8>,
    n_buckets: usize,
    mask: u64,
    len: usize,
    kick_rng: SplitMix64,
    displacements: u64,
    max_chain: u64,
    evictions: u64,
    kv: PhantomData<(K, V)>,
}

/// Where a stored key sits, as [`CuckooHash::find_visit`] found it.
/// Valid until the next insert or remove, either of which may move
/// entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The bucket index, as the `probe` callbacks report it.
    pub bucket: usize,
    slot: usize,
}

/// Outcome of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Key inserted into a free slot.
    Inserted,
    /// Key already present; value replaced.
    Replaced,
    /// Table too full; insert failed after the displacement limit.
    Full,
}

fn hash_of<K: Hash>(k: &K, seed: u64) -> u64 {
    // FxHash-style multiply-xor via the std hasher would be
    // platform-stable enough, but we want explicit determinism:
    let mut h = std::collections::hash_map::DefaultHasher::new();
    seed.hash(&mut h);
    k.hash(&mut h);
    h.finish()
}

impl<K: Packed + Hash, V: Packed> CuckooHash<K, V> {
    /// Bytes per `(key, value)` entry.
    const ENTRY: usize = K::SIZE + V::SIZE;
    /// Bytes per bucket: the occupancy byte, then the slots.
    const STRIDE: usize = 1 + SLOTS * Self::ENTRY;

    /// Creates a table with `n_buckets` buckets (rounded up to a power of
    /// two). Capacity is `n_buckets * SLOTS` entries at best.
    ///
    /// # Panics
    ///
    /// Panics if the rounded bucket count or the table's byte size
    /// overflows `usize`.
    pub fn new(n_buckets: usize) -> Self {
        let n = n_buckets
            .checked_next_power_of_two()
            .unwrap_or_else(|| panic!("cuckoo table: {n_buckets} buckets overflow usize"))
            .max(2);
        let size = n.checked_mul(Self::STRIDE).unwrap_or_else(|| {
            panic!(
                "cuckoo table: {n} buckets × {} B overflow usize",
                Self::STRIDE
            )
        });
        CuckooHash {
            bytes: vec![0; size],
            n_buckets: n,
            mask: (n - 1) as u64,
            len: 0,
            kick_rng: SplitMix64::new(0xC0C0_0C0C),
            displacements: 0,
            max_chain: 0,
            evictions: 0,
            kv: PhantomData,
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.n_buckets
    }

    /// Maximum entries the table can hold (`buckets × SLOTS`).
    pub fn capacity(&self) -> usize {
        self.n_buckets * SLOTS
    }

    /// Displacement steps taken across all inserts so far.
    pub fn displacements(&self) -> u64 {
        self.displacements
    }

    /// Longest single displacement chain any insert has walked. Bounded
    /// by the kick limit (64), which `tests/tests/tablescale.rs` pins.
    pub fn max_chain(&self) -> u64 {
        self.max_chain
    }

    /// Entries lost to the displacement limit: a `Full` insert places
    /// the new key but drops the final displaced victim (rte_hash's
    /// failure mode), so each one is a capacity eviction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket_pair(&self, key: &K) -> (usize, usize) {
        let h1 = hash_of(key, 0x9E37_79B9);
        let h2 = hash_of(key, 0x517C_C1B7);
        ((h1 & self.mask) as usize, (h2 & self.mask) as usize)
    }

    /// Bucket `b`'s bytes: its occupancy byte, then its slots.
    #[inline]
    fn bucket(&self, b: usize) -> &[u8] {
        assert!(b < self.n_buckets, "bucket {b} of {}", self.n_buckets);
        &self.bytes[b * Self::STRIDE..][..Self::STRIDE]
    }

    #[inline]
    fn bucket_mut(&mut self, b: usize) -> &mut [u8] {
        assert!(b < self.n_buckets, "bucket {b} of {}", self.n_buckets);
        &mut self.bytes[b * Self::STRIDE..][..Self::STRIDE]
    }

    /// Offset of slot `s`'s entry within its bucket.
    #[inline]
    fn entry_offset(s: usize) -> usize {
        assert!(s < SLOTS, "slot {s} of {SLOTS}");
        1 + s * Self::ENTRY
    }

    /// The slot in bucket `b` holding the key that packs to `key`.
    #[inline]
    fn find(&self, b: usize, key: &[u8]) -> Option<usize> {
        let bucket = self.bucket(b);
        let occupied = bucket[0];
        (0..SLOTS).find(|&s| {
            let at = Self::entry_offset(s);
            occupied & (1 << s) != 0 && &bucket[at..at + K::SIZE] == key
        })
    }

    fn key_at(&self, b: usize, s: usize) -> K {
        K::unpack(&self.bucket(b)[Self::entry_offset(s)..])
    }

    fn value_at(&self, b: usize, s: usize) -> V {
        V::unpack(&self.bucket(b)[Self::entry_offset(s) + K::SIZE..])
    }

    fn set_value(&mut self, b: usize, s: usize, value: V) {
        let at = Self::entry_offset(s) + K::SIZE;
        self.bucket_mut(b)[at..at + V::SIZE].copy_from_slice(value.pack().as_ref());
    }

    /// Writes `key → value` into slot `s` of bucket `b` and marks it
    /// occupied.
    fn put(&mut self, b: usize, s: usize, key: &[u8], value: V) {
        let at = Self::entry_offset(s);
        let bucket = self.bucket_mut(b);
        bucket[0] |= 1 << s;
        bucket[at..at + K::SIZE].copy_from_slice(key);
        bucket[at + K::SIZE..at + Self::ENTRY].copy_from_slice(value.pack().as_ref());
    }

    /// Finds `key`, reporting the probed bucket indices through `probe`
    /// (for cache charging): the first bucket always, the second only
    /// when the first misses. Returns where the key sits and its value.
    pub fn find_visit(&self, key: &K, mut probe: impl FnMut(usize)) -> Option<(Slot, V)> {
        let (b1, b2) = self.bucket_pair(key);
        let packed = key.pack();
        [b1, b2].into_iter().find_map(|bucket| {
            probe(bucket);
            let slot = self.find(bucket, packed.as_ref())?;
            Some((Slot { bucket, slot }, self.value_at(bucket, slot)))
        })
    }

    /// Looks up `key`, probing as [`find_visit`](Self::find_visit) does.
    pub fn lookup_visit(&self, key: &K, probe: impl FnMut(usize)) -> Option<V> {
        self.find_visit(key, probe).map(|(_, v)| v)
    }

    /// Looks up `key`.
    pub fn lookup(&self, key: &K) -> Option<V> {
        self.lookup_visit(key, |_| {})
    }

    /// Places `key → value` in bucket `b`'s first empty slot, if any.
    fn try_place(&mut self, b: usize, key: &[u8], value: V) -> bool {
        let free = !self.bucket(b)[0] & ((1 << SLOTS) - 1);
        if free == 0 {
            return false;
        }
        self.put(b, free.trailing_zeros() as usize, key, value);
        true
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
        let packed = key.pack();
        // Replace in place if present.
        for b in [b1, b2] {
            if let Some(s) = self.find(b, packed.as_ref()) {
                self.set_value(b, s, value);
                return InsertOutcome::Replaced;
            }
        }
        if self.try_place(b1, packed.as_ref(), value) || self.try_place(b2, packed.as_ref(), value)
        {
            self.len += 1;
            return InsertOutcome::Inserted;
        }
        // Random-walk displacement starting from b1.
        let (mut key, mut value) = (key, value);
        let mut b = b1;
        for kick in 0..MAX_KICKS {
            let victim_slot = (self.kick_rng.next_u64() % SLOTS as u64) as usize;
            assert!(
                self.bucket(b)[0] & (1 << victim_slot) != 0,
                "displacement always targets a full bucket"
            );
            let victim = (self.key_at(b, victim_slot), self.value_at(b, victim_slot));
            self.put(b, victim_slot, key.pack().as_ref(), value);
            self.displacements += 1;
            (key, value) = victim;
            let (v1, v2) = self.bucket_pair(&key);
            b = if b == v1 { v2 } else { v1 };
            probe(b);
            if self.try_place(b, key.pack().as_ref(), value) {
                self.len += 1;
                self.max_chain = self.max_chain.max(kick as u64 + 1);
                return InsertOutcome::Inserted;
            }
        }
        // Undo is skipped (the displaced chain still holds valid entries;
        // only the last victim is dropped) — matching rte_hash's failure
        // mode.
        self.max_chain = self.max_chain.max(MAX_KICKS as u64);
        self.evictions += 1;
        InsertOutcome::Full
    }

    /// Inserts without probe tracking.
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        self.insert_visit(key, value, |_| {})
    }

    /// Checks that `at` holds an entry.
    fn occupied(&self, at: Slot) {
        let live = self.bucket(at.bucket)[0] & (1 << at.slot) != 0;
        assert!(live, "{at:?} holds no entry");
    }

    /// Replaces the value at `at` in place (no displacement, no re-hash).
    ///
    /// # Panics
    ///
    /// Panics if `at` holds no entry.
    pub fn set(&mut self, at: Slot, value: V) {
        self.occupied(at);
        self.set_value(at.bucket, at.slot, value);
    }

    /// Removes the entry at `at`, returning its value.
    ///
    /// # Panics
    ///
    /// Panics if `at` holds no entry.
    pub fn remove_at(&mut self, at: Slot) -> V {
        self.occupied(at);
        self.bucket_mut(at.bucket)[0] &= !(1 << at.slot);
        self.len -= 1;
        self.value_at(at.bucket, at.slot)
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (at, _) = self.find_visit(key, |_| {})?;
        Some(self.remove_at(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut h: CuckooHash<u64, u32> = CuckooHash::new(16);
        assert_eq!(h.insert(42, 1), InsertOutcome::Inserted);
        assert_eq!(h.lookup(&42), Some(1));
        assert_eq!(h.insert(42, 2), InsertOutcome::Replaced);
        assert_eq!(h.lookup(&42), Some(2));
        assert_eq!(h.remove(&42), Some(2));
        assert_eq!(h.lookup(&42), None);
        assert!(h.is_empty());
    }

    #[test]
    fn bucket_is_an_occupancy_byte_plus_four_packed_entries() {
        let h: CuckooHash<u64, u32> = CuckooHash::new(16);
        assert_eq!(CuckooHash::<u64, u32>::STRIDE, 1 + 4 * 12);
        assert_eq!(h.bytes.len(), 16 * 49);
    }

    #[test]
    #[should_panic(expected = "overflow usize")]
    fn oversized_table_panics_with_a_message() {
        let _: CuckooHash<u64, u64> = CuckooHash::new(usize::MAX / 8);
    }

    #[test]
    fn many_entries_with_displacement() {
        let mut h: CuckooHash<u64, u64> = CuckooHash::new(256);
        // Fill to ~75% of the 1024-entry capacity.
        for k in 0..768u64 {
            assert_ne!(h.insert(k, k * 10), InsertOutcome::Full, "k={k}");
        }
        for k in 0..768u64 {
            assert_eq!(h.lookup(&k), Some(k * 10), "k={k}");
        }
        assert_eq!(h.len(), 768);
    }

    #[test]
    fn lookup_probes_at_most_two_buckets() {
        let mut h: CuckooHash<u64, u64> = CuckooHash::new(64);
        for k in 0..100 {
            h.insert(k, k);
        }
        for k in 0..100 {
            let mut probes = 0;
            h.lookup_visit(&k, |_| probes += 1);
            assert!(probes <= 2, "key {k} probed {probes} buckets");
        }
    }

    #[test]
    fn full_table_reports_full() {
        let mut h: CuckooHash<u64, u64> = CuckooHash::new(2);
        let mut full_seen = false;
        for k in 0..64u64 {
            if h.insert(k, k) == InsertOutcome::Full {
                full_seen = true;
                break;
            }
        }
        assert!(full_seen, "a 2-bucket table must eventually fill");
    }

    #[test]
    fn a_found_slot_is_set_and_removed_in_place() {
        let mut h: CuckooHash<u64, u32> = CuckooHash::new(16);
        h.insert(7, 70);
        let mut probed = Vec::new();
        let (at, v) = h.find_visit(&7, |b| probed.push(b)).expect("inserted");
        assert_eq!((v, Some(&at.bucket)), (70, probed.last()));
        h.set(at, 71);
        assert_eq!(h.lookup(&7), Some(71));
        assert_eq!(h.remove_at(at), 71);
        assert_eq!((h.lookup(&7), h.len()), (None, 0));
    }

    #[test]
    #[should_panic(expected = "holds no entry")]
    fn a_stale_slot_panics() {
        let mut h: CuckooHash<u64, u32> = CuckooHash::new(16);
        h.insert(7, 70);
        let (at, _) = h.find_visit(&7, |_| {}).expect("inserted");
        h.remove_at(at);
        h.set(at, 1);
    }

    #[test]
    fn missing_keys_absent() {
        let mut h: CuckooHash<u64, u64> = CuckooHash::new(16);
        h.insert(1, 1);
        assert_eq!(h.lookup(&2), None);
        assert_eq!(h.remove(&2), None);
    }

    #[test]
    fn model_check_against_hashmap() {
        use std::collections::HashMap;
        let mut h: CuckooHash<u32, u32> = CuckooHash::new(512);
        let mut model: HashMap<u32, u32> = HashMap::new();
        let mut rng = SplitMix64::new(99);
        for _ in 0..4_000 {
            let k = (rng.next_u64() % 600) as u32;
            match rng.next_u64() % 3 {
                0 => {
                    if h.insert(k, k + 1) != InsertOutcome::Full {
                        model.insert(k, k + 1);
                    }
                }
                1 => {
                    assert_eq!(h.remove(&k), model.remove(&k), "remove {k}");
                }
                _ => {
                    assert_eq!(h.lookup(&k), model.get(&k).copied(), "lookup {k}");
                }
            }
        }
        assert_eq!(h.len(), model.len());
    }
}
