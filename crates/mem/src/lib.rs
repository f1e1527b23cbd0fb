//! Cache & memory-hierarchy simulator and cycle cost model for
//! PacketMill-rs.
//!
//! The PacketMill paper's results are, at bottom, cache-locality results:
//! metadata-management models differ in *which simulated addresses* the
//! driver and the framework touch per packet, and the code optimizations
//! differ in *how many* dispatch/state/pool lines the per-packet path
//! touches. This crate provides the machinery that turns those address
//! streams into latency:
//!
//! * [`cache::SetAssocCache`] — a set-associative LRU cache with optional
//!   way-restricted allocation (used to model Intel DDIO, which confines
//!   DMA fills to a subset of LLC ways).
//! * [`tlb::Tlb`] — DTLB/STLB models (static-graph arena allocation vs.
//!   heap-scattered element state shows up here).
//! * [`hierarchy::MemoryHierarchy`] — per-core L1/L2, shared inclusive
//!   LLC, DMA-write path, and `perf`-style counters (`llc-loads`,
//!   `llc-load-misses`, …).
//! * [`cost::Cost`] — the accumulator that splits work into core-clock
//!   cycles and uncore/wall-clock nanoseconds; dividing only the former
//!   by the core frequency is what yields the paper's frequency curves.
//! * [`address::AddressSpace`] — simulated virtual address-region
//!   allocation, with both arena (contiguous) and scattered (heap-like)
//!   placement.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod address;
pub mod cache;
pub mod cost;
pub mod hierarchy;
pub mod profile;
pub mod program;
pub(crate) mod resident;
pub mod tlb;

pub use address::{AddressSpace, Region, ScatterAlloc, ADDR_LIMIT};
pub use cache::{CacheParams, SetAssocCache};
pub use cost::{Cost, LatencyModel};
pub use hierarchy::{AccessKind, HierarchyParams, Level, MemCounters, MemoryHierarchy};
pub use profile::{
    ScopeId, ScopeProfile, SCOPE_MEMPOOL, SCOPE_METADATA, SCOPE_RX, SCOPE_SCHEDULER, SCOPE_TX,
};
pub use program::{AccessProgram, ProgramBuilder, StepOp};
pub use tlb::Tlb;

/// Cache-line size used throughout the simulator (bytes).
pub const LINE: u64 = 64;

/// Returns the number of cache lines spanned by `len` bytes at `addr`.
///
/// # Examples
///
/// ```
/// assert_eq!(pm_mem::lines_spanned(0, 64), 1);
/// assert_eq!(pm_mem::lines_spanned(60, 8), 2); // straddles a boundary
/// assert_eq!(pm_mem::lines_spanned(128, 0), 0);
/// ```
pub fn lines_spanned(addr: u64, len: u64) -> u64 {
    if len == 0 {
        return 0;
    }
    let first = addr / LINE;
    let last = (addr + len - 1) / LINE;
    last - first + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_spanned_cases() {
        assert_eq!(lines_spanned(0, 1), 1);
        assert_eq!(lines_spanned(63, 1), 1);
        assert_eq!(lines_spanned(63, 2), 2);
        assert_eq!(lines_spanned(0, 128), 2);
        assert_eq!(lines_spanned(1, 128), 3);
    }
}
