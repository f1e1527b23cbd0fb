//! Discrete-event simulation kernel for PacketMill-rs.
//!
//! This crate provides the shared time base, frequency arithmetic, event
//! queue, and deterministic random-number generation used by every other
//! simulation crate in the workspace.
//!
//! # Design notes
//!
//! * Simulated time is kept in integer **picoseconds** ([`SimTime`]) so that
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * CPU core frequency and uncore frequency are first-class values
//!   ([`Frequency`]); converting cycle counts to wall time is explicit.
//! * The event queue ([`EventQueue`]) is a bucketed calendar queue sized
//!   to the link-pacing cadence, with a sequence tiebreaker so events
//!   scheduled for the same instant pop in scheduling order
//!   (deterministic FIFO semantics, identical to the reference
//!   [`HeapEventQueue`] min-heap).
//! * Hot-path randomness uses a from-scratch [`rng::SplitMix64`]; workload
//!   synthesis elsewhere in the workspace uses seeded `rand` generators.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod fault;
pub mod freq;
pub mod rng;
pub mod time;

pub use events::{EventQueue, HeapEventQueue};
pub use fault::{DropCause, FaultEvent, FaultKind, FaultPlan, FaultSpecError, Ledger, WireFault};
pub use freq::Frequency;
pub use rng::SplitMix64;
pub use time::{round_to_u64, SimTime};
