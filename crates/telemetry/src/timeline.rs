//! The windowed time-series half of the flight recorder.
//!
//! A [`TimelineRecorder`] accumulates per-window, per-lane series driven
//! entirely by **virtual time**: every observation carries a simulated
//! picosecond timestamp and lands in window `t / window` — exact integer
//! arithmetic, no wall-clock anywhere — so the finished
//! [`TimelineReport`] is byte-identical regardless of sweep threading or
//! host speed. Cumulative counters (LLC misses, drops by cause) flow
//! through [`WindowSampler`], reproducing the paper's
//! sample-every-100-ms `perf` methodology; per-event series (tx/rx
//! packets, per-window latency percentiles, ring/mempool occupancy) are
//! bucketed directly by event timestamp.
//!
//! Recording is **measurement-neutral** by construction: the recorder
//! only ever reads values handed to it and charges no simulated cost.

use crate::histogram::LatencyHistogram;
use crate::json::Json;
use crate::series::WindowSampler;

/// A running sum/count pair for per-window occupancy means.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    sum: u64,
    n: u64,
}

impl Acc {
    fn mean(self) -> Option<f64> {
        (self.n > 0).then(|| self.sum as f64 / self.n as f64)
    }
}

/// Per-lane (per-core) event-bucketed series.
#[derive(Debug, Clone, Default)]
struct Lane {
    tx: Vec<u64>,
    tx_bytes: Vec<u64>,
    rx: Vec<u64>,
    lat: Vec<Option<LatencyHistogram>>,
    rx_backlog: Vec<Acc>,
    tx_in_flight: Vec<Acc>,
    pool_free: Vec<Acc>,
}

fn at<T: Default + Clone>(v: &mut Vec<T>, idx: usize) -> &mut T {
    if v.len() <= idx {
        v.resize(idx + 1, T::default());
    }
    &mut v[idx]
}

/// Accumulates the windowed time series of one run.
#[derive(Debug, Clone)]
pub struct TimelineRecorder {
    window_ps: u64,
    drop_labels: Vec<&'static str>,
    llc: WindowSampler,
    llc_cum: u64,
    drops: Vec<WindowSampler>,
    drops_cum: Vec<u64>,
    lanes: Vec<Lane>,
}

impl TimelineRecorder {
    /// Creates a recorder with the given virtual-time window (ps), one
    /// lane per core, and one cumulative drop series per label.
    ///
    /// # Panics
    ///
    /// Panics if `window_ps` is zero or `lanes` is zero.
    pub fn new(window_ps: u64, lanes: usize, drop_labels: Vec<&'static str>) -> Self {
        assert!(window_ps > 0, "window must be positive");
        assert!(lanes > 0, "need at least one lane");
        let window_ns = window_ps as f64 / 1e3;
        TimelineRecorder {
            window_ps,
            drops: drop_labels
                .iter()
                .map(|_| WindowSampler::new(window_ns))
                .collect(),
            drops_cum: vec![0; drop_labels.len()],
            drop_labels,
            llc: WindowSampler::new(window_ns),
            llc_cum: 0,
            lanes: vec![Lane::default(); lanes],
        }
    }

    /// The recording window, in picoseconds.
    pub fn window_ps(&self) -> u64 {
        self.window_ps
    }

    fn idx(&self, at_ps: u64) -> usize {
        (at_ps / self.window_ps) as usize
    }

    /// Whether an observation at `now_ps` closes a window of the
    /// cumulative series (they share one window and start). Between due
    /// checkpoints only the latest observation matters to
    /// [`Self::finish`], so a caller may skip the others and observe the
    /// last checkpoint once before finishing.
    pub fn due(&self, now_ps: u64) -> bool {
        self.llc.due(now_ps as f64 / 1e3)
    }

    /// Reports the cumulative LLC-miss counter at a checkpoint.
    pub fn observe_llc(&mut self, now_ps: u64, cumulative: u64) {
        self.llc.observe(now_ps as f64 / 1e3, cumulative);
        self.llc_cum = cumulative;
    }

    /// Reports the cumulative drop counters (one per label, in label
    /// order) at a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one counter per drop label: a
    /// short slice would silently leave series unobserved.
    pub fn observe_drops(&mut self, now_ps: u64, cumulative: &[u64]) {
        assert_eq!(
            cumulative.len(),
            self.drops.len(),
            "one cumulative drop counter per label"
        );
        let now_ns = now_ps as f64 / 1e3;
        for ((s, cum), &v) in self
            .drops
            .iter_mut()
            .zip(&mut self.drops_cum)
            .zip(cumulative)
        {
            s.observe(now_ns, v);
            *cum = v;
        }
    }

    /// Records `count` packets delivered into lane `lane`'s RX queues at
    /// virtual time `at_ps`.
    pub fn on_rx(&mut self, lane: usize, at_ps: u64, count: u64) {
        let i = self.idx(at_ps);
        *at(&mut self.lanes[lane].rx, i) += count;
    }

    /// Records one packet leaving lane `lane` on the wire at `at_ps`,
    /// with its frame length and end-to-end latency.
    pub fn on_tx(&mut self, lane: usize, at_ps: u64, bytes: u64, latency_ns: u64) {
        let i = self.idx(at_ps);
        *at(&mut self.lanes[lane].tx, i) += 1;
        *at(&mut self.lanes[lane].tx_bytes, i) += bytes;
        at(&mut self.lanes[lane].lat, i)
            .get_or_insert_with(LatencyHistogram::new)
            .record(latency_ns);
    }

    /// Samples ring and mempool occupancy for lane `lane` at `at_ps`.
    pub fn on_occupancy(
        &mut self,
        lane: usize,
        at_ps: u64,
        rx_backlog: u64,
        tx_in_flight: u64,
        pool_free: u64,
    ) {
        let i = self.idx(at_ps);
        let l = &mut self.lanes[lane];
        let add = |acc: &mut Acc, v: u64| {
            acc.sum += v;
            acc.n += 1;
        };
        add(at(&mut l.rx_backlog, i), rx_backlog);
        add(at(&mut l.tx_in_flight, i), tx_in_flight);
        add(at(&mut l.pool_free, i), pool_free);
    }

    /// Closes the recorder at the end of the run (`end_ps` = final
    /// virtual time) and renders every series to a uniform window count.
    pub fn finish(self, end_ps: u64) -> TimelineReport {
        let w = self.window_ps;
        let full = (end_ps / w) as usize;
        let partial = !end_ps.is_multiple_of(w);
        let lane_max = self
            .lanes
            .iter()
            .flat_map(|l| {
                [
                    l.tx.len(),
                    l.tx_bytes.len(),
                    l.rx.len(),
                    l.lat.len(),
                    l.rx_backlog.len(),
                    l.tx_in_flight.len(),
                    l.pool_free.len(),
                ]
            })
            .max()
            .unwrap_or(0);
        let windows = (full + usize::from(partial)).max(lane_max);

        let end_us = end_ps as f64 / 1e6;
        let window_end_us: Vec<f64> = (0..windows)
            .map(|i| (((i + 1) as u64 * w) as f64 / 1e6).min(end_us))
            .collect();

        let end_ns = end_ps as f64 / 1e3;
        let pad = |mut deltas: Vec<u64>| {
            deltas.resize(windows, 0);
            deltas
        };
        let series = |s: WindowSampler, last: u64| {
            pad(s
                .finish(end_ns, last)
                .into_iter()
                .map(|x| x.delta)
                .collect())
        };
        // Finishing with the latest observed cumulative value closes
        // remaining boundaries and flushes any mid-window tail.
        let llc_misses = series(self.llc, self.llc_cum);
        let drops = self
            .drop_labels
            .iter()
            .zip(self.drops)
            .zip(self.drops_cum)
            .map(|((&label, s), cum)| (label, series(s, cum)))
            .collect();

        let cores = self
            .lanes
            .into_iter()
            .map(|l| {
                let percentile = |hists: &[Option<LatencyHistogram>], p: f64| {
                    (0..windows)
                        .map(|i| {
                            hists
                                .get(i)
                                .and_then(|h| h.as_ref())
                                .map(|h| h.percentile(p) as f64 / 1e3)
                        })
                        .collect::<Vec<Option<f64>>>()
                };
                let means = |accs: &[Acc]| {
                    (0..windows)
                        .map(|i| accs.get(i).copied().unwrap_or_default().mean())
                        .collect::<Vec<Option<f64>>>()
                };
                CoreSeries {
                    p50_us: percentile(&l.lat, 50.0),
                    p99_us: percentile(&l.lat, 99.0),
                    rx_backlog: means(&l.rx_backlog),
                    tx_in_flight: means(&l.tx_in_flight),
                    pool_free: means(&l.pool_free),
                    tx: pad(l.tx),
                    tx_bytes: pad(l.tx_bytes),
                    rx: pad(l.rx),
                }
            })
            .collect();

        TimelineReport {
            window_us: w as f64 / 1e6,
            window_end_us,
            llc_misses,
            drops,
            cores,
        }
    }
}

/// One core's finished per-window series (all of equal length).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreSeries {
    /// Packets serialized onto the wire per window.
    pub tx: Vec<u64>,
    /// Frame bytes serialized per window.
    pub tx_bytes: Vec<u64>,
    /// Packets delivered into this core's RX queues per window.
    pub rx: Vec<u64>,
    /// Median latency (µs) of packets departing in each window, `None`
    /// for windows with no departures.
    pub p50_us: Vec<Option<f64>>,
    /// 99th-percentile latency (µs) per window, `None` when empty.
    pub p99_us: Vec<Option<f64>>,
    /// Mean RX-ring backlog (DMA-complete, not yet polled) per window,
    /// `None` for windows with no occupancy samples.
    pub rx_backlog: Vec<Option<f64>>,
    /// Mean TX-ring in-flight descriptors per window.
    pub tx_in_flight: Vec<Option<f64>>,
    /// Mean free mempool buffers per window.
    pub pool_free: Vec<Option<f64>>,
}

/// The finished windowed time series of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineReport {
    /// The recording window, in microseconds.
    pub window_us: f64,
    /// End of each window (µs); the last entry is clamped to the run end.
    pub window_end_us: Vec<f64>,
    /// LLC load misses per window (whole run, all cores).
    pub llc_misses: Vec<u64>,
    /// Drops per window by cause, in [`DropCause::ALL`] order
    /// (`pm_sim::DropCause` — labels are its pinned string forms).
    pub drops: Vec<(&'static str, Vec<u64>)>,
    /// Per-core series, indexed by core id.
    pub cores: Vec<CoreSeries>,
}

impl TimelineReport {
    /// The `timeline` section of the run-report JSON. Key order is fixed
    /// and every key is always present, so the artifact schema does not
    /// vary with the data.
    pub fn to_json(&self) -> Json {
        let u64s = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::U64(x)).collect());
        let opts = |v: &[Option<f64>]| {
            Json::Arr(v.iter().map(|x| x.map_or(Json::Null, Json::F64)).collect())
        };
        Json::obj(vec![
            ("window_us", Json::F64(self.window_us)),
            ("windows", Json::U64(self.window_end_us.len() as u64)),
            (
                "window_end_us",
                Json::Arr(self.window_end_us.iter().map(|&x| Json::F64(x)).collect()),
            ),
            ("llc_misses", u64s(&self.llc_misses)),
            (
                "drops",
                Json::Obj(
                    self.drops
                        .iter()
                        .map(|(label, v)| ((*label).to_string(), u64s(v)))
                        .collect(),
                ),
            ),
            (
                "cores",
                Json::Arr(
                    self.cores
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            Json::obj(vec![
                                ("core", Json::U64(i as u64)),
                                ("tx", u64s(&c.tx)),
                                ("tx_bytes", u64s(&c.tx_bytes)),
                                ("rx", u64s(&c.rx)),
                                ("p50_us", opts(&c.p50_us)),
                                ("p99_us", opts(&c.p99_us)),
                                ("rx_backlog", opts(&c.rx_backlog)),
                                ("tx_in_flight", opts(&c.tx_in_flight)),
                                ("pool_free", opts(&c.pool_free)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Throughput (Gbps) per window for one core: frame bytes (plus the
    /// 20 B/packet preamble+IFG the wire also carries) over the window.
    pub fn gbps(&self, core: usize) -> Vec<f64> {
        let c = &self.cores[core];
        let mut prev_end = 0.0;
        self.window_end_us
            .iter()
            .enumerate()
            .map(|(i, &end)| {
                let span_us = end - prev_end;
                prev_end = end;
                if span_us <= 0.0 {
                    return 0.0;
                }
                let bits = (c.tx_bytes[i] + 20 * c.tx[i]) as f64 * 8.0;
                bits / (span_us * 1e3) // bits per ns = Gbps
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000_000; // ps

    fn recorder() -> TimelineRecorder {
        TimelineRecorder::new(100 * US, 2, vec!["fcs", "nf"])
    }

    #[test]
    fn events_bucket_by_virtual_time() {
        let mut r = recorder();
        r.on_tx(0, 50 * US, 1500, 4_000);
        r.on_tx(0, 150 * US, 1500, 8_000);
        r.on_tx(1, 150 * US, 500, 2_000);
        r.on_rx(0, 99 * US, 32);
        let t = r.finish(200 * US);
        assert_eq!(t.window_end_us, vec![100.0, 200.0]);
        assert_eq!(t.cores[0].tx, vec![1, 1]);
        assert_eq!(t.cores[0].rx, vec![32, 0]);
        assert_eq!(t.cores[1].tx, vec![0, 1]);
        assert_eq!(t.cores[1].tx_bytes, vec![0, 500]);
        // p50 recorded only where departures happened.
        assert!(t.cores[1].p50_us[0].is_none());
        assert!(t.cores[1].p50_us[1].is_some());
    }

    #[test]
    #[should_panic(expected = "one cumulative drop counter per label")]
    fn drop_counters_must_cover_every_label() {
        recorder().observe_drops(50 * US, &[1]);
    }

    #[test]
    fn boundary_event_lands_in_next_window() {
        let mut r = recorder();
        r.on_tx(0, 100 * US, 64, 1_000); // exactly on the boundary
        let t = r.finish(200 * US);
        assert_eq!(t.cores[0].tx, vec![0, 1]);
    }

    #[test]
    fn cumulative_series_and_padding() {
        let mut r = recorder();
        r.observe_llc(80 * US, 10);
        r.observe_drops(80 * US, &[2, 0]);
        r.observe_llc(120 * US, 25);
        r.observe_drops(120 * US, &[2, 3]);
        let t = r.finish(250 * US);
        assert_eq!(t.window_end_us, vec![100.0, 200.0, 250.0]);
        // Window 0 closes at the 120 µs observation with the full delta.
        assert_eq!(t.llc_misses, vec![25, 0, 0]);
        assert_eq!(t.drops, [("fcs", vec![2, 0, 0]), ("nf", vec![3, 0, 0])]);
    }

    #[test]
    fn occupancy_means_per_window() {
        let mut r = recorder();
        r.on_occupancy(0, 10 * US, 4, 0, 100);
        r.on_occupancy(0, 20 * US, 8, 2, 50);
        r.on_occupancy(0, 150 * US, 1, 1, 10);
        let t = r.finish(200 * US);
        assert_eq!(t.cores[0].rx_backlog, vec![Some(6.0), Some(1.0)]);
        assert_eq!(t.cores[0].tx_in_flight, vec![Some(1.0), Some(1.0)]);
        assert_eq!(t.cores[0].pool_free, vec![Some(75.0), Some(10.0)]);
        assert_eq!(t.cores[1].rx_backlog, vec![None, None]);
    }

    #[test]
    fn json_has_fixed_keys() {
        let mut r = recorder();
        r.on_tx(0, 10 * US, 64, 500);
        let j = r.finish(100 * US).to_json();
        for key in [
            "window_us",
            "windows",
            "window_end_us",
            "llc_misses",
            "drops",
            "cores",
        ] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        let core = match j.get("cores") {
            Some(Json::Arr(cores)) => &cores[0],
            other => panic!("bad cores: {other:?}"),
        };
        for key in [
            "core",
            "tx",
            "tx_bytes",
            "rx",
            "p50_us",
            "p99_us",
            "rx_backlog",
            "tx_in_flight",
            "pool_free",
        ] {
            assert!(core.get(key).is_some(), "missing core key {key}");
        }
    }

    #[test]
    fn gbps_per_window() {
        let mut r = recorder();
        // 1000 frames of 1230 B in window 0: (1230+20)*8*1000 bits
        // over 100 µs = 0.1 Gbps * 1000 = 100 Gbps.
        for i in 0..1000u64 {
            r.on_tx(0, i * 50_000_000 / 1000, 1230, 1_000);
        }
        let t = r.finish(200 * US);
        let g = t.gbps(0);
        assert!((g[0] - 100.0).abs() < 1e-9, "got {}", g[0]);
        assert_eq!(g[1], 0.0);
    }

    /// `(ps, llc, [fcs, nf])` cumulative checkpoints.
    type Checkpoint = (u64, u64, [u64; 2]);

    /// A recorder fed `cps`, at every checkpoint or — `gated` — only when
    /// [`TimelineRecorder::due`] plus once more at `last`, then finished
    /// at `end_ps`.
    fn replay(
        window_ps: u64,
        cps: &[Checkpoint],
        gated: bool,
        last: Checkpoint,
        end_ps: u64,
    ) -> TimelineReport {
        let mut r = TimelineRecorder::new(window_ps, 1, vec!["fcs", "nf"]);
        let observe = |r: &mut TimelineRecorder, (t, llc, drops): Checkpoint| {
            r.observe_llc(t, llc);
            r.observe_drops(t, &drops);
        };
        for &cp in cps {
            if !gated || r.due(cp.0) {
                observe(&mut r, cp);
            }
        }
        if gated {
            observe(&mut r, last);
        }
        r.finish(end_ps)
    }

    proptest::proptest! {
        /// Observing the cumulative series only when a window closes,
        /// plus one final observation of the last checkpoint, finishes
        /// into the same report as observing every checkpoint — over
        /// random monotone checkpoints, counters and window widths,
        /// checkpoints on boundaries and runs that end past the last
        /// checkpoint included.
        #[test]
        fn due_gated_observation_finishes_the_same(
            window_ps in 1u64..5_000_000,
            steps in proptest::collection::vec(
                ((0u64..4, 0u64..3_000_000), 0u64..50, (0u64..3, 0u64..3)),
                1..200,
            ),
            tail_ps in 0u64..10_000_000,
        ) {
            let mut cps = Vec::new();
            let (mut t, mut llc, mut fcs, mut nf) = (0, 0, 0, 0);
            for ((shape, dt), dl, (df, dn)) in steps {
                // Some steps land exactly on a boundary or stand still.
                t = match shape {
                    0 => (t / window_ps + 1) * window_ps,
                    1 => t,
                    _ => t + dt,
                };
                llc += dl;
                fcs += df;
                nf += dn;
                cps.push((t, llc, [fcs, nf]));
            }
            let last = *cps.last().unwrap();
            let end = t + tail_ps;
            proptest::prop_assert_eq!(
                replay(window_ps, &cps, true, last, end),
                replay(window_ps, &cps, false, last, end)
            );
        }
    }

    /// The final observation must carry the last checkpoint's values: a
    /// counter that moves after it (as the LLC can in the engine's final
    /// empty poll) must not reach the report, and here it would.
    #[test]
    fn final_observation_uses_the_last_checkpoint() {
        let cps = [
            (50 * US, 10, [1, 0]),
            (120 * US, 25, [1, 2]),
            (130 * US, 30, [1, 2]),
        ];
        let last = cps[2];
        let every = replay(100 * US, &cps, false, last, 250 * US);
        assert_eq!(every, replay(100 * US, &cps, true, last, 250 * US));
        assert_eq!(every.llc_misses, vec![25, 5, 0]);
        let later = (last.0, 31, last.2);
        assert_ne!(every, replay(100 * US, &cps, true, later, 250 * US));
    }
}
