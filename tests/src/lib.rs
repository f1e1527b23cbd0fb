//! Shared code for the integration batteries in `tests/tests/`: the
//! reference models the fast structures are driven against, kept out of
//! every production crate's dependency graph.

#![forbid(unsafe_code)]

pub mod classic;

pub use classic::ClassicSetAssocCache;
