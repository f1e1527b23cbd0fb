//! The original dense latency histogram, kept as a differential-testing
//! reference.
//!
//! [`LatencyHistogram`](pm_telemetry::LatencyHistogram) used to allocate
//! every bucket `u64` can address (3 776 at the default precision,
//! 30 208 B) up front; it now holds only the span between the lowest and
//! highest bucket it has counted. The two must agree on every count,
//! extreme, mean and percentile, because the run reports and timelines
//! print them. `properties.rs::histogram_lockstep` drives both through
//! arbitrary record/merge/clear scripts to prove it. Keep this model
//! faithful to the original: the bucketing below is the production one.

/// A log-bucketed histogram over a dense array of every bucket (the
/// reference model; use [`LatencyHistogram`](pm_telemetry::LatencyHistogram)
/// in real code).
#[derive(Debug, Clone)]
pub struct ClassicHistogram {
    sub_bits: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl ClassicHistogram {
    /// Creates an empty histogram keeping `sub_bits` significant bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= sub_bits <= 16`.
    pub fn with_precision(sub_bits: u32) -> Self {
        assert!(
            (1..=16).contains(&sub_bits),
            "sub_bits must be in 1..=16, got {sub_bits}"
        );
        // One linear region of 2^(sub_bits+1) slots, then one region of
        // 2^sub_bits slots per power of two above that: 64 regions covers u64.
        let regions = 64 - sub_bits;
        let slots = (1usize << (sub_bits + 1)) + (regions as usize - 1) * (1usize << sub_bits);
        ClassicHistogram {
            sub_bits,
            buckets: vec![0; slots],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(&self, value: u64) -> usize {
        let sb = self.sub_bits;
        let v = value;
        let msb = 63u32.saturating_sub(v.leading_zeros()); // 0 for v in {0,1}
        if msb <= sb {
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
            let low = ((1u64 << sb) + slot as u64).checked_shl(region as u32);
            match low {
                Some(lo) => lo.saturating_add((1u64 << region) - 1),
                None => u64::MAX,
            }
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value);
        self.buckets[idx] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
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

    /// The value at percentile `p` (clamped to `0.0..=100.0`, NaN as 0):
    /// the upper bound of the bucket holding the `p`-th sample, clamped
    /// to the observed max; 0 when empty.
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
                return self.value_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Merges `other` bucket-for-bucket at equal precision, and by
    /// re-recording each of its buckets at its representative value
    /// (clamped to `other`'s max) otherwise.
    pub fn merge(&mut self, other: &ClassicHistogram) {
        if self.sub_bits == other.sub_bits {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
        } else {
            for (i, &c) in other.buckets.iter().enumerate() {
                if c > 0 {
                    let idx = self.index_of(other.value_of(i).min(other.max));
                    self.buckets[idx] += c;
                }
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets the histogram to empty.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}
