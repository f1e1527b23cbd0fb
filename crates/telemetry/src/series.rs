//! Windowed sampling of counters over simulated time.
//!
//! The paper samples `perf` counters every 100 ms and reports the average
//! over the run (Table 1, Figure 9). [`WindowSampler`] reproduces that
//! methodology: the simulation reports counter totals at time checkpoints
//! and the sampler converts them into fixed-width per-window deltas.

/// One per-window sample: `(window_end_ns, value_delta)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// End of the window, in simulated nanoseconds.
    pub end_ns: f64,
    /// Counter delta observed in this window.
    pub delta: u64,
}

/// Converts cumulative counter observations into fixed-width window deltas.
///
/// # Examples
///
/// ```
/// use pm_telemetry::WindowSampler;
///
/// // 100 ms windows (in ns).
/// let mut s = WindowSampler::new(100_000_000.0);
/// s.observe(50_000_000.0, 10);   // mid-window: no sample yet
/// s.observe(100_000_000.0, 40);  // window closes: delta = 40
/// s.observe(250_000_000.0, 100); // crosses another boundary
/// let windows = s.finish(250_000_000.0, 100);
/// assert_eq!(windows[0].delta, 40);
/// ```
#[derive(Debug, Clone)]
pub struct WindowSampler {
    window_ns: f64,
    next_boundary: f64,
    last_value: u64,
    samples: Vec<Sample>,
}

impl WindowSampler {
    /// Creates a sampler with the given window width in nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is not strictly positive.
    pub fn new(window_ns: f64) -> Self {
        assert!(window_ns > 0.0, "window must be positive");
        WindowSampler {
            window_ns,
            next_boundary: window_ns,
            last_value: 0,
            samples: Vec::new(),
        }
    }

    /// Reports that the cumulative counter reads `value` at time `now_ns`.
    ///
    /// Closes every window boundary passed since the previous observation,
    /// attributing the delta to the window in which it was observed.
    pub fn observe(&mut self, now_ns: f64, value: u64) {
        while self.due(now_ns) {
            self.samples.push(Sample {
                end_ns: self.next_boundary,
                delta: value.saturating_sub(self.last_value),
            });
            self.last_value = value;
            self.next_boundary += self.window_ns;
        }
    }

    /// Whether an observation at `now_ns` closes a window. One that does
    /// not changes nothing here.
    pub(crate) fn due(&self, now_ns: f64) -> bool {
        now_ns >= self.next_boundary
    }

    /// Closes any partial final window and returns all samples.
    pub fn finish(mut self, now_ns: f64, value: u64) -> Vec<Sample> {
        self.observe(now_ns, value);
        let tail = value.saturating_sub(self.last_value);
        if tail > 0 {
            self.samples.push(Sample {
                end_ns: now_ns,
                delta: tail,
            });
        }
        self.samples
    }

    /// The window width, in nanoseconds.
    pub fn window_ns(&self) -> f64 {
        self.window_ns
    }

    /// Mean per-window delta over complete windows, or `None` if no window
    /// has closed yet.
    pub fn mean_delta(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(
                self.samples.iter().map(|s| s.delta as f64).sum::<f64>()
                    / self.samples.len() as f64,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_per_window() {
        let mut s = WindowSampler::new(100.0);
        s.observe(100.0, 10);
        s.observe(200.0, 30);
        s.observe(300.0, 60);
        assert_eq!(
            s.samples.iter().map(|s| s.delta).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
    }

    #[test]
    fn skipped_windows_attribute_to_first_closed() {
        let mut s = WindowSampler::new(100.0);
        s.observe(250.0, 50); // crosses boundaries at 100 and 200
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.samples[0].delta, 50);
        assert_eq!(s.samples[1].delta, 0);
    }

    #[test]
    fn finish_includes_tail() {
        let mut s = WindowSampler::new(100.0);
        s.observe(100.0, 7);
        let all = s.finish(150.0, 12);
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].delta, 5);
        assert_eq!(all[1].end_ns, 150.0);
    }

    #[test]
    fn mean_delta() {
        let mut s = WindowSampler::new(10.0);
        s.observe(10.0, 4);
        s.observe(20.0, 10);
        assert_eq!(s.mean_delta(), Some(5.0));
    }

    #[test]
    fn no_windows_no_mean() {
        let s = WindowSampler::new(10.0);
        assert_eq!(s.mean_delta(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_rejected() {
        let _ = WindowSampler::new(0.0);
    }

    #[test]
    fn observation_exactly_on_boundary_closes_that_window() {
        let mut s = WindowSampler::new(100.0);
        s.observe(100.0, 7); // exactly on the first boundary
        assert_eq!(s.samples.len(), 1);
        assert_eq!(
            s.samples[0],
            Sample {
                end_ns: 100.0,
                delta: 7
            }
        );
        // The next boundary has advanced: a later mid-window observation
        // does not re-close it.
        s.observe(150.0, 9);
        assert_eq!(s.samples.len(), 1);
    }

    #[test]
    fn finish_on_boundary_adds_no_empty_trailing_window() {
        let mut s = WindowSampler::new(100.0);
        s.observe(50.0, 3);
        let all = s.finish(200.0, 10);
        // Windows at 100 and 200 close; no zero-delta tail after.
        assert_eq!(all.len(), 2);
        assert_eq!(
            all[0],
            Sample {
                end_ns: 100.0,
                delta: 10
            }
        );
        assert_eq!(
            all[1],
            Sample {
                end_ns: 200.0,
                delta: 0
            }
        );
    }

    #[test]
    fn finish_past_last_boundary_emits_partial_tail_only_if_nonzero() {
        // A delta spanning the last boundary is attributed to that
        // boundary's window; only a change observed strictly after every
        // closed boundary materializes as a partial tail at `now`.
        let mut s = WindowSampler::new(100.0);
        s.observe(100.0, 4);
        let all = s.finish(260.0, 9);
        assert_eq!(all.len(), 2);
        assert_eq!(
            all[1],
            Sample {
                end_ns: 200.0,
                delta: 5
            }
        );
        // Finish mid-window with a fresh delta: partial tail at `now`.
        let mut s = WindowSampler::new(100.0);
        s.observe(100.0, 4);
        let all = s.finish(150.0, 9);
        assert_eq!(all.len(), 2);
        assert_eq!(
            all[1],
            Sample {
                end_ns: 150.0,
                delta: 5
            }
        );
        // Finish mid-window with no delta: the partial window is omitted.
        let mut s = WindowSampler::new(100.0);
        s.observe(100.0, 4);
        let all = s.finish(150.0, 4);
        assert_eq!(all.len(), 1);
        assert_eq!(all.last().unwrap().end_ns, 100.0);
    }

    #[test]
    fn window_ns_accessor() {
        assert_eq!(WindowSampler::new(250.0).window_ns(), 250.0);
    }
}
