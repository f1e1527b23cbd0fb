//! # PacketMill-rs
//!
//! A from-scratch Rust reproduction of *PacketMill: Toward Per-Core
//! 100-Gbps Networking* (ASPLOS '21): the X-Change metadata-management
//! model, the configuration-driven code-optimization pipeline
//! (devirtualization, constant embedding, static graph, profile-guided
//! struct reordering), a FastClick-like modular framework, and the
//! simulated 100-Gbps testbed (NIC + DMA/DDIO + cache hierarchy) the
//! evaluation runs on.
//!
//! # Quickstart
//!
//! ```
//! use packetmill::{ExperimentBuilder, MetadataModel, Nf, OptLevel};
//!
//! let vanilla = ExperimentBuilder::new(Nf::Forwarder)
//!     .metadata_model(MetadataModel::Copying)
//!     .optimization(OptLevel::Vanilla)
//!     .frequency_ghz(2.3)
//!     .packets(20_000)
//!     .run()
//!     .unwrap();
//!
//! let packetmill = ExperimentBuilder::new(Nf::Forwarder)
//!     .metadata_model(MetadataModel::XChange)
//!     .optimization(OptLevel::AllSource)
//!     .frequency_ghz(2.3)
//!     .packets(20_000)
//!     .run()
//!     .unwrap();
//!
//! assert!(packetmill.throughput_gbps > vanilla.throughput_gbps);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod click_dataplane;
pub mod engine;
pub mod experiment;
pub mod report;
pub mod sweep;

pub use click_dataplane::ClickDataplane;
pub use engine::{Engine, EngineConfig, Measurement, QueueLedger};
pub use experiment::{ExperimentBuilder, ExperimentError, Nf, OptLevel};
pub use report::{FaultReport, RunReport};
pub use sweep::{RunOutcome, SweepCli, SweepReport, SweepResults, SweepSpec};

// Re-exports so examples and tests need only this crate.
pub use pm_click::TableStats;
pub use pm_click::{ConfigGraph, DispatchMode, ExecPlan, Graph};
pub use pm_compile::MillIr;
pub use pm_dpdk::{MempoolMode, MetaField, MetadataModel, MetadataSpec};
pub use pm_elements::{configs, standard_registry};
pub use pm_frameworks::{BessEngine, Dataplane, L2Fwd, VppEngine};
pub use pm_sim::{fault::FaultKind, DropCause, FaultPlan, Frequency, Ledger, SimTime, WireFault};
pub use pm_telemetry::{
    chrome_trace, Json, ProfileReport, Table, TimelineReport, TraceReport, TraceSpec,
};
pub use pm_traffic::{
    AttackEvent, AttackKind, SizeModel, Trace, TraceConfig, TrafficProfile, Workload, WorkloadSpec,
    WorkloadSpecError, WorkloadStats,
};
pub use report::WorkloadReport;
