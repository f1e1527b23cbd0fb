//! The PacketMill-rs figures library: one generator per table/figure of
//! the paper's evaluation (§4), each printing the same rows/series the
//! paper reports, registered in [`figures::FIGURES`].
//!
//! Run everything via `cargo run --release -p pm-bench -- all`, or
//! single artifacts by key, e.g. `cargo run --release -p pm-bench -- fig4`.

#![warn(missing_docs)]

pub mod figures;
