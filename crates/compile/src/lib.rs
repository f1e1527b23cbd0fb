//! The PacketMill optimizer (paper §3.2).
//!
//! PacketMill "grinds the whole packet processing stack": it reads the NF
//! configuration, applies source-level transformations
//! (devirtualization, constant embedding, static graph embedding — the
//! resurrection of `click-devirtualize` plus the paper's additions), and
//! an IR-level transformation (profile-guided reordering of the `Packet`
//! metadata structure, §3.2.2), producing a specialized execution plan
//! and a log of what each pass did ([`MillIr::log`]). Each pass is a plain
//! function over `&mut MillIr`, in the stages of Fig. 3 ([`packetmill`]
//! runs the first two, in order):
//!
//! ```text
//! Config file ─┬─> config passes  (dead-element elimination)
//!              ├─> plan passes    (devirtualize, constants, static graph)
//!              └─> layout pass    (profile-guided field reordering)
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod passes;
pub mod pipeline;

pub use passes::{dead_elements, devirtualize, embed_constants, reorder_fields, static_graph};
pub use pipeline::{packetmill, MillIr};
