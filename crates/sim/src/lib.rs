//! Simulation kernel for PacketMill-rs.
//!
//! This crate provides the shared time base, frequency arithmetic,
//! fault plans, the clause lexer both spec grammars share, and
//! deterministic random-number generation used by every
//! other simulation crate in the workspace.
//!
//! # Design notes
//!
//! * Simulated time is kept in integer **picoseconds** ([`SimTime`]) so that
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * CPU core frequency and uncore frequency are first-class values
//!   ([`Frequency`]); converting cycle counts to wall time is explicit.
//! * All randomness — hot-path draws and workload synthesis alike — comes
//!   from a from-scratch, explicitly seeded [`rng::SplitMix64`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fault;
pub mod freq;
pub mod rng;
pub mod spec;
pub mod time;

pub use fault::{DropCause, FaultEvent, FaultKind, FaultPlan, FaultSpecError, Ledger, WireFault};
pub use freq::Frequency;
pub use rng::SplitMix64;
pub use time::{round_to_u64, SimTime};
