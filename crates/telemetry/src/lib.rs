//! Measurement primitives for PacketMill-rs: latency histograms,
//! percentile estimation, windowed perf-counter sampling, and plain-text
//! table rendering.
//!
//! This crate is dependency-free and usable both by the simulator (to
//! collect the metrics the paper reports — throughput, median/99th
//! percentile latency, LLC loads & misses, IPC) and by the benchmark
//! harnesses (to print paper-style tables).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod histogram;
pub mod json;
pub mod profile;
pub mod series;
pub mod table;
pub mod timeline;
pub mod trace;

pub use histogram::LatencyHistogram;
pub use json::{Json, JsonError};
pub use profile::{ProfileRecord, ProfileReport};
pub use series::{Sample, WindowSampler};
pub use table::Table;
pub use timeline::{CoreSeries, TimelineRecorder, TimelineReport};
pub use trace::{chrome_trace, PacketTrace, TraceRecorder, TraceReport, TraceSpec};
