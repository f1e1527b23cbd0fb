//! Simulated time: an integer picosecond time base.
//!
//! All simulation crates share [`SimTime`] so that event ordering is exact
//! (no floating-point drift) while still being fine-grained enough to
//! represent sub-nanosecond quantities such as the serialization time of a
//! single byte at 100 Gbps (80 ps).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// `v.round() as u64` without the call: at the x86-64 baseline (no
/// SSE4.1 `roundsd`) `f64::round` is an out-of-line libm routine, and the
/// per-packet paths (every `Cost::time`, PCIe transfer, pacing gap) go
/// through here. Truncate, then compare the fraction — exact below 2^53,
/// where the subtraction loses nothing; from there up `v` is integral.
/// Negative and NaN inputs give 0 and huge ones saturate, as the cast did.
#[inline]
pub fn round_to_u64(v: f64) -> u64 {
    let t = v as u64;
    t.saturating_add(u64::from(v - t as f64 >= 0.5))
}

/// A point in (or duration of) simulated time, in integer picoseconds.
///
/// `SimTime` is used both as an absolute timestamp (picoseconds since the
/// start of the simulation) and as a duration; the arithmetic operators
/// treat it uniformly.
///
/// # Examples
///
/// ```
/// use pm_sim::SimTime;
///
/// let t = SimTime::from_ns(6.72); // 64-B frame slot at 100 Gbps
/// assert_eq!(t.as_ps(), 6720);
/// assert!((t.as_ns() - 6.72).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero timestamp (start of simulation).
    pub const ZERO: SimTime = SimTime(0);

    /// The maximum representable time (used as an "infinite" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from integer picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from (possibly fractional) nanoseconds.
    ///
    /// Negative inputs saturate to zero.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        SimTime(round_to_u64(ns * 1_000.0))
    }

    /// Creates a time from (possibly fractional) microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        Self::from_ns(us * 1_000.0)
    }

    /// Creates a time from (possibly fractional) milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        Self::from_ns(ms * 1_000_000.0)
    }

    /// Creates a time from whole seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        Self::from_ns(s * 1_000_000_000.0)
    }

    /// Returns the raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the time in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the time in microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the time in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the time in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns `self - rhs`, or zero if `rhs > self`.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// The index of the recording window containing this instant, for a
    /// given window length: window `i` covers
    /// `[i * window, (i + 1) * window)`. The flight recorder keys all of
    /// its per-window accumulation off this, so checkpoint boundaries
    /// are exact integer arithmetic on the clock — no float drift.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[inline]
    pub const fn window_index(self, window: SimTime) -> u64 {
        assert!(window.0 > 0, "window length must be positive");
        self.0 / window.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_ns();
        if ns < 1_000.0 {
            write!(f, "{ns:.2} ns")
        } else if ns < 1_000_000.0 {
            write!(f, "{:.2} us", ns / 1_000.0)
        } else if ns < 1_000_000_000.0 {
            write!(f, "{:.2} ms", ns / 1_000_000.0)
        } else {
            write!(f, "{:.3} s", ns / 1_000_000_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_to_u64_edge_cases() {
        let below_half = 0.499_999_999_999_999_94_f64; // 0.5 - ulp/2
        assert!(below_half < 0.5);
        let two52 = (1u64 << 52) as f64;
        let cases = [
            0.0,
            -0.0,
            below_half,
            0.5,
            1.5,
            2.5,
            6719.5,
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two52 * 2.0 - 1.0,
            two52 * 2.0,
            u64::MAX as f64,
            1e22,
            f64::INFINITY,
            -0.3,
            -0.7,
            -1e30,
            f64::NAN,
        ];
        for v in cases {
            assert_eq!(round_to_u64(v), v.round() as u64, "{v:e}");
        }
        // Negative durations still saturate to zero.
        assert_eq!(SimTime::from_ns(-4.2), SimTime::ZERO);
    }

    proptest! {
        /// The truncate-and-compare rounding agrees with `f64::round` on
        /// arbitrary bit patterns, on exact halves, and around 2^52 where
        /// the fraction runs out of mantissa.
        #[test]
        fn round_to_u64_matches_libm(bits in any::<u64>(), n in 0u64..(1 << 52), k in 0u64..4096) {
            let arbitrary = f64::from_bits(bits);
            let half = n as f64 + 0.5;
            let near_2_52 = f64::from_bits(((1u64 << 52) as f64).to_bits() - 2048 + k);
            for v in [arbitrary, half, near_2_52] {
                prop_assert_eq!(round_to_u64(v), v.round() as u64, "{:e}", v);
            }
        }
    }

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_ns(123.456);
        assert_eq!(t.as_ps(), 123_456);
        assert!((t.as_ns() - 123.456).abs() < 1e-9);
        assert!((t.as_us() - 0.123_456).abs() < 1e-12);
    }

    #[test]
    fn from_units_agree() {
        assert_eq!(SimTime::from_us(1.0), SimTime::from_ns(1_000.0));
        assert_eq!(SimTime::from_ms(1.0), SimTime::from_us(1_000.0));
        assert_eq!(SimTime::from_secs(1.0), SimTime::from_ms(1_000.0));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ps(100);
        let b = SimTime::from_ps(40);
        assert_eq!((a + b).as_ps(), 140);
        assert_eq!((a - b).as_ps(), 60);
        assert_eq!((a * 3).as_ps(), 300);
        assert_eq!((a / 4).as_ps(), 25);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn negative_ns_saturates_to_zero() {
        assert_eq!(SimTime::from_ns(-5.0), SimTime::ZERO);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_ns(1.0);
        let b = SimTime::from_ns(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(5.0)), "5.00 ns");
        assert_eq!(format!("{}", SimTime::from_us(5.0)), "5.00 us");
        assert_eq!(format!("{}", SimTime::from_ms(5.0)), "5.00 ms");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=4).map(SimTime::from_ps).sum();
        assert_eq!(total.as_ps(), 10);
    }

    #[test]
    fn window_index_boundaries_are_half_open() {
        let w = SimTime::from_us(100.0);
        assert_eq!(SimTime::ZERO.window_index(w), 0);
        assert_eq!((w - SimTime::from_ps(1)).window_index(w), 0);
        // The boundary instant belongs to the *next* window.
        assert_eq!(w.window_index(w), 1);
        assert_eq!((w * 7 + SimTime::from_ps(1)).window_index(w), 7);
    }

    #[test]
    fn wire_slot_at_100g() {
        // A 64-B frame + 20 B preamble/IFG at 100 Gbps takes 6.72 ns.
        let bits = (64u64 + 20) * 8;
        let t = SimTime::from_ns(bits as f64 / 100.0);
        assert_eq!(t.as_ps(), 6_720);
    }
}
