//! Log-bucketed latency histogram with percentile queries.
//!
//! An HDR-histogram-style structure: values are bucketed with a fixed
//! number of significant bits, giving a bounded relative error (< 1/64
//! with the default 6 sub-bucket bits) over an arbitrary dynamic range.
//! Recording is O(1) and the simulator records one latency sample per
//! forwarded packet, so the bucket array holds only the span between the
//! lowest and highest bucket counted so far: a histogram whose values
//! sit within a few powers of two holds a few hundred buckets, not the
//! 3 776 (30 KiB) that all of `u64` needs, and allocates only when a
//! value lands outside that span.

/// A log-bucketed histogram of `u64` values (we use nanoseconds).
///
/// # Examples
///
/// ```
/// use pm_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.percentile(50.0);
/// assert!((480..=520).contains(&p50), "p50 was {p50}");
/// assert_eq!(h.count(), 1000);
/// assert_eq!(h.max(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// Number of low-order "sub-bucket" bits kept at full precision.
    sub_bits: u32,
    /// Bucket index of `buckets[0]`.
    lo: usize,
    /// Counts for bucket indices `lo..lo + buckets.len()`; every bucket
    /// outside that span is zero, and the span is empty until the first
    /// value is recorded.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

const DEFAULT_SUB_BITS: u32 = 6;

impl LatencyHistogram {
    /// Creates an empty histogram with default precision (~1.6% max error).
    pub fn new() -> Self {
        Self::with_precision(DEFAULT_SUB_BITS)
    }

    /// Creates an empty histogram keeping `sub_bits` significant bits.
    /// It allocates nothing until the first value is recorded.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sub_bits <= 16`.
    pub fn with_precision(sub_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&sub_bits),
            "sub_bits must be in 1..=16, got {sub_bits}"
        );
        LatencyHistogram {
            sub_bits,
            lo: 0,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index of `value`: one linear region of 2^(sub_bits+1)
    /// exact slots, then one region of 2^sub_bits slots per power of two
    /// above that (64 − sub_bits regions cover `u64`).
    fn index_of(&self, value: u64) -> usize {
        let sb = self.sub_bits;
        let v = value;
        let msb = 63u32.saturating_sub(v.leading_zeros()); // 0 for v in {0,1}
        if msb <= sb {
            // Linear region: exact.
            v as usize
        } else {
            let region = msb - sb; // >= 1
            let shifted = (v >> (msb - sb)) as usize; // in [2^sb, 2^(sb+1))
            let base = (1usize << (sb + 1)) + (region as usize - 1) * (1usize << sb);
            base + (shifted - (1usize << sb))
        }
    }

    fn value_of(&self, index: usize) -> u64 {
        let sb = self.sub_bits;
        let linear = 1usize << (sb + 1);
        if index < linear {
            index as u64
        } else {
            let region = (index - linear) / (1usize << sb) + 1;
            let slot = (index - linear) % (1usize << sb);
            // Midpoint-ish representative: top of the bucket. Saturate for
            // buckets whose upper bound exceeds u64::MAX.
            let low = ((1u64 << sb) + slot as u64).checked_shl(region as u32);
            match low {
                Some(lo) => lo.saturating_add((1u64 << region) - 1),
                None => u64::MAX,
            }
        }
    }

    /// The position of bucket `index` in `buckets`, widening the span to
    /// cover it first if it lies outside.
    #[inline]
    fn slot(&mut self, index: usize) -> usize {
        // Below `lo` the subtraction wraps past every valid position, so
        // one compare tells inside from outside.
        let at = index.wrapping_sub(self.lo);
        if at < self.buckets.len() {
            at
        } else {
            self.widen(index, index + 1);
            index - self.lo
        }
    }

    /// Widens the span to cover bucket indices `lo..hi` as well, to
    /// exactly the union. Only a value outside every span counted so far
    /// calls it. It grows the vector through `realloc` rather than into
    /// a fresh one, so a span that keeps widening (latencies climbing as
    /// a queue builds) extends in place where the allocator can and
    /// leaves no trail of freed smaller copies in the heap.
    #[cold]
    #[inline(never)]
    fn widen(&mut self, lo: usize, hi: usize) {
        if self.buckets.is_empty() {
            self.lo = lo;
        }
        let end = self.lo + self.buckets.len();
        if hi > end {
            self.buckets.reserve_exact(hi - end);
            self.buckets.resize(hi - self.lo, 0);
        }
        if lo < self.lo {
            let (len, shift) = (self.buckets.len(), self.lo - lo);
            self.buckets.reserve_exact(shift);
            self.buckets.resize(len + shift, 0);
            self.buckets.copy_within(0..len, shift);
            self.buckets[..shift].fill(0);
            self.lo = lo;
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let at = self.slot(self.index_of(value));
        self.buckets[at] += 1;
        self.count += 1;
        self.sum += value as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let at = self.slot(self.index_of(value));
        self.buckets[at] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns the value at percentile `p`, or 0 for an empty histogram.
    ///
    /// `p` is clamped to `0.0..=100.0` (a NaN is treated as 0). The
    /// returned value is the representative (upper bound) of the bucket
    /// containing the `p`-th percentile sample, clamped to the observed max.
    pub fn percentile(&self, p: f64) -> u64 {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.value_of(self.lo + i).min(self.max);
            }
        }
        self.max
    }

    /// Convenience: median (p50).
    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }

    /// Convenience: 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Convenience: 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.percentile(99.9)
    }

    /// Merges another histogram into this one.
    ///
    /// Histograms of equal precision merge bucket-for-bucket. When the
    /// precisions differ, `other`'s buckets are renormalized through this
    /// histogram's bucketing (each bucket is re-recorded at its
    /// representative value, clamped to `other`'s observed max), so the
    /// result is well-formed at this histogram's precision; count, sum,
    /// min, and max remain exact.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.sub_bits == other.sub_bits {
            if !other.buckets.is_empty() {
                self.widen(other.lo, other.lo + other.buckets.len());
                let from = other.lo - self.lo;
                for (a, b) in self.buckets[from..].iter_mut().zip(&other.buckets) {
                    *a += b;
                }
            }
        } else {
            for (i, &c) in other.buckets.iter().enumerate() {
                if c > 0 {
                    let v = other.value_of(other.lo + i).min(other.max);
                    let at = self.slot(self.index_of(v));
                    self.buckets[at] += c;
                }
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets the histogram to empty, releasing its buckets.
    pub fn clear(&mut self) {
        self.lo = 0;
        self.buckets = Vec::new();
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(99.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::new();
        h.record(12_345);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 12_345);
        assert_eq!(h.max(), 12_345);
        let p50 = h.median();
        assert!(relative_error(p50, 12_345) < 0.02, "p50={p50}");
    }

    #[test]
    fn small_values_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..100 {
            h.record(v);
        }
        // Values below 2^(sub_bits+1)=128 are stored exactly.
        assert_eq!(h.percentile(100.0), 99);
        assert_eq!(h.percentile(1.0), 0);
    }

    #[test]
    fn percentiles_bounded_error() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, expect) in [(50.0, 50_000u64), (90.0, 90_000), (99.0, 99_000)] {
            let got = h.percentile(p);
            assert!(
                relative_error(got, expect) < 0.02,
                "p{p}: got {got}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn record_n_equivalent_to_loop() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..57 {
            a.record(999);
        }
        b.record_n(999, 57);
        assert_eq!(a.count(), b.count());
        assert_eq!(a.median(), b.median());
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn merge_combines() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn span_holds_only_counted_buckets() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.buckets.capacity(), 0, "new() allocates nothing");
        h.record(10_000);
        h.record(1_000_000);
        let (lo, hi) = (h.index_of(10_000), h.index_of(1_000_000));
        assert_eq!((h.lo, h.buckets.len()), (lo, hi - lo + 1));
        // Growing downward shifts the counted buckets up.
        h.record(5);
        assert_eq!((h.lo, h.buckets.len()), (5, hi - 5 + 1));
        assert_eq!(h.buckets[lo - 5], 1);
        assert_eq!(h.percentile(50.0), h.value_of(lo));
        h.clear();
        assert_eq!(h.buckets.capacity(), 0, "clear() releases the span");
        h.record(7);
        assert_eq!((h.lo, h.buckets.len(), h.max()), (7, 1, 7));
    }

    #[test]
    fn mean_exact() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn clear_resets() {
        let mut h = LatencyHistogram::new();
        h.record(5);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(100.0) >= u64::MAX / 2);
    }

    #[test]
    fn out_of_range_percentile_clamps() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(101.0), h.percentile(100.0));
        assert_eq!(h.percentile(f64::INFINITY), h.max());
        assert_eq!(h.percentile(-5.0), h.percentile(0.0));
        assert_eq!(h.percentile(f64::NAN), h.percentile(0.0));
        // Empty histograms return 0 at any percentile.
        assert_eq!(LatencyHistogram::new().percentile(250.0), 0);
    }

    #[test]
    fn p999_tracks_tail() {
        let mut h = LatencyHistogram::new();
        h.record_n(100, 9_990);
        h.record_n(10_000, 10);
        assert!(relative_error(h.p99(), 100) < 0.02, "p99={}", h.p99());
        assert!(relative_error(h.p999(), 10_000) < 0.02, "p999={}", h.p999());
    }

    #[test]
    fn merge_differing_precision_renormalizes() {
        let mut coarse = LatencyHistogram::with_precision(2);
        let mut fine = LatencyHistogram::with_precision(8);
        for v in 1..=10_000u64 {
            fine.record(v);
        }
        coarse.record(5);
        coarse.merge(&fine);
        // Count/sum/min/max are exact.
        assert_eq!(coarse.count(), 10_001);
        assert_eq!(coarse.min(), 1);
        assert_eq!(coarse.max(), 10_000);
        assert!((coarse.mean() - (5.0 + 50_005_000.0) / 10_001.0).abs() < 1e-6);
        // Percentiles stay within the coarse histogram's error bound
        // (sub_bits=2 -> <= 1/4 relative error) and never exceed max.
        let p50 = coarse.median();
        assert!(relative_error(p50, 5_000) < 0.25, "p50={p50}");
        assert!(coarse.percentile(100.0) <= 10_000);

        // Merging an empty histogram of different precision is a no-op.
        let empty = LatencyHistogram::with_precision(4);
        let before = coarse.count();
        coarse.merge(&empty);
        assert_eq!(coarse.count(), before);
    }

    fn relative_error(got: u64, expect: u64) -> f64 {
        (got as f64 - expect as f64).abs() / expect as f64
    }
}
