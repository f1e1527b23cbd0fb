//! A FastClick-like modular packet-processing framework for
//! PacketMill-rs.
//!
//! Network functions are composed from **elements** connected into a
//! directed graph by a configuration written in the Click language
//! (paper Listing 3):
//!
//! ```text
//! input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
//! output :: ToDPDKDevice(PORT 0, BURST 32);
//! input -> EtherMirror -> output
//! ```
//!
//! The crate provides:
//!
//! * [`config`] — a lexer + recursive-descent parser for that language;
//! * [`element`] — the [`Element`] trait, the charged execution context
//!   ([`Ctx`]), and the per-packet handle ([`Pkt`]);
//! * [`packet`] — the framework's `Packet` metadata class: its
//!   reorderable [`StructLayout`] and the FIFO-cycling object pool whose
//!   cache behaviour the Copying model inherits;
//! * [`plan`] — the [`ExecPlan`]: which optimizations are active
//!   (dispatch mode, constant embedding, static graph/SROA, metadata
//!   model, packet layout). `pm-compile`'s passes produce these;
//! * [`graph`] — configuration graph → runtime graph construction with
//!   an element registry and validation;
//! * [`runtime`] — the per-core push-path executor that walks the graph
//!   for every packet, charging dispatch / parameter / state / metadata
//!   costs according to the active plan.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod element;
pub mod graph;
pub mod packet;
pub mod plan;
pub mod runtime;

pub use config::{Arg, Args, ConfigError, ConfigGraph, Connection, Declaration};
pub use element::{Action, Annos, Ctx, Element, ElementKind, FieldProfile, Pkt, TableStats};
pub use graph::{ElementRegistry, Graph};
pub use packet::{default_packet_layout, ClickPool};
pub use plan::{DispatchMode, ExecPlan};
pub use runtime::{GraphRuntime, PacketFate};

// Re-exported so element implementations only need pm-click.
pub use pm_dpdk::{MetadataModel, StructLayout};
