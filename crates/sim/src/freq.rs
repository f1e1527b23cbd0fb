//! Clock frequencies.
//!
//! The PacketMill evaluation sweeps the DUT core frequency from 1.2 to
//! 3.0 GHz while pinning the *uncore* (LLC / memory controller) clock at
//! 2.4 GHz. Splitting costs into core-clock cycles and uncore/wall-clock
//! nanoseconds is what produces the paper's frequency-dependent
//! throughput curves; this module holds the frequency value, and the
//! cycle↔time conversion itself is `pm_mem::Cost::time` /
//! `Cost::total_cycles_at`.

use std::fmt;

/// A clock frequency, stored in kHz so common GHz values are exact.
///
/// # Examples
///
/// ```
/// use pm_sim::Frequency;
///
/// let f = Frequency::from_ghz(2.3);
/// assert_eq!(f.as_ghz(), 2.3);
/// assert_eq!(f.to_string(), "2.300 GHz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    khz: u64,
}

impl Frequency {
    /// Creates a frequency from GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive, got {ghz}");
        Frequency {
            khz: (ghz * 1_000_000.0).round() as u64,
        }
    }

    /// Returns the frequency in GHz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.khz as f64 / 1_000_000.0
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GHz", self.as_ghz())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_round_trip() {
        for ghz in [1.2, 1.4, 2.3, 2.4, 3.0] {
            let f = Frequency::from_ghz(ghz);
            assert!((f.as_ghz() - ghz).abs() < 1e-9, "{ghz}");
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_frequency_rejected() {
        let _ = Frequency::from_ghz(0.0);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Frequency::from_ghz(2.3)), "2.300 GHz");
    }
}
