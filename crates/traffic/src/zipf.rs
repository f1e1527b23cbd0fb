//! Zipf-distributed sampling over a finite universe.
//!
//! Flow popularity in campus/ISP traces is heavy-tailed; a Zipf law with
//! exponent near 1 is the standard model. Implemented as an inverse-CDF
//! table with a guide table (Chen & Asau, "On generating random variates
//! from an empirical distribution", 1974): a draw searches only the
//! ranks between two guide entries, not the whole table.

use pm_sim::SplitMix64;

/// Most guide entries a table keeps (256 KiB of `u32`).
const MAX_GUIDE: usize = 1 << 16;

/// A Zipf(α) sampler over `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank whose CDF is at least `j / G`, for
    /// `j` in `0..=G`, where `G = guide.len() - 1` is a power of two.
    guide: Vec<u32>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > u32::MAX` or `alpha < 0`.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "empty universe");
        assert!(u32::try_from(n).is_ok(), "more than u32::MAX ranks");
        assert!(alpha >= 0.0, "negative exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        // Normalise, and fill the guide as the CDF crosses each j / G.
        // G is a power of two, so `c·G` is exact and `j <= c·G` is
        // `j / G <= c`.
        let g = n.next_power_of_two().min(MAX_GUIDE);
        let mut guide = Vec::with_capacity(g + 1);
        for (rank, c) in cdf.iter_mut().enumerate() {
            *c /= total;
            while guide.len() <= g && guide.len() as f64 <= *c * g as f64 {
                guide.push(rank as u32);
            }
        }
        guide.resize(g + 1, n as u32);
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if there is only the trivial rank (never: `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.rank(rng.next_f64())
    }

    /// The first rank whose CDF is at least `u`, for `u` in `[0, 1)`.
    /// With `j = ⌊u·G⌋`, `j / G ≤ u < (j + 1) / G`, and the CDF is
    /// non-decreasing, so that rank lies in `guide[j]..=guide[j + 1]`.
    fn rank(&self, u: f64) -> usize {
        let g = self.guide.len() - 1;
        let j = (u * g as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let r = lo + self.cdf[lo..hi].partition_point(|&c| c < u);
        r.min(self.cdf.len() - 1)
    }

    /// The analytic CDF at `rank`: the probability mass of ranks
    /// `0..=rank` (used by the workload property tests to compare
    /// empirical sample frequencies against the closed form).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n`.
    pub fn cdf(&self, rank: usize) -> f64 {
        self.cdf[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_zero_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SplitMix64::new(1);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
        // Zipf(1): rank 0 ≈ 10× rank 9.
        let ratio = counts[0] as f64 / counts[9] as f64;
        assert!((5.0..20.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = SplitMix64::new(2);
        let mut counts = vec![0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(3, 1.2);
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    fn deterministic() {
        let z = Zipf::new(50, 0.9);
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    /// The search the guide table narrows: the whole CDF.
    fn oracle(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|&c| c < u).min(z.len() - 1)
    }

    #[test]
    fn guided_rank_equals_the_whole_cdf_search() {
        let below_one = 1.0 - f64::EPSILON / 2.0;
        assert!(below_one < 1.0 && below_one.next_up() == 1.0);
        let mut rng = SplitMix64::new(0x6D1DE);
        for case in 0..120 {
            let n = match case {
                0..=2 => 1,
                3 => 1 << 16,
                4 => (1 << 16) + 1,
                5 => 300_000,
                _ => 1 + rng.next_below(if case % 4 == 0 { 100_000 } else { 3_000 }) as usize,
            };
            let alpha = match case % 6 {
                0 => 0.0,
                1 => 4.0,
                _ => rng.next_f64() * 4.0,
            };
            let z = Zipf::new(n, alpha);
            let g = z.guide.len() - 1;
            assert!(g.is_power_of_two() && g <= MAX_GUIDE && g <= n.next_power_of_two());
            let mut us = vec![0.0, below_one];
            for j in 0..g {
                let edge = j as f64 / g as f64;
                us.extend([
                    edge,
                    edge.next_up(),
                    ((j + 1) as f64 / g as f64).next_down(),
                ]);
            }
            for &c in z.cdf.iter().take(5_000) {
                us.extend([c.next_down(), c, c.next_up()]);
            }
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                assert_eq!(z.rank(u), oracle(&z, u), "n {n} alpha {alpha} u {u:e}");
            }
            let mut draws = SplitMix64::new(rng.next_u64());
            let mut reference = draws.clone();
            for _ in 0..2_000 {
                assert_eq!(z.sample(&mut draws), oracle(&z, reference.next_f64()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn zero_n_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
