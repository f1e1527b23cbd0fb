//! Precompiled per-touch-site **access programs**.
//!
//! The hot per-packet charging pattern is a fixed *shape*: the same
//! sequence of descriptor, metadata, and payload spans with the same
//! read/write kinds and the same interleaved compute charges, varying
//! only in a handful of base addresses (which descriptor slot, which
//! packet buffer). An [`AccessProgram`] captures that shape once — at
//! element/ring/queue construction time, the simulator's analogue of the
//! paper's "pay at compile time, not per packet" LLVM passes — as a flat
//! list of steps over numbered base registers. The hierarchy resolves a
//! program in one tight loop ([`crate::MemoryHierarchy::run_program`])
//! with a single attribution update.
//!
//! A program is *semantically defined* as the equivalent call sequence:
//!
//! ```text
//! for step in steps {
//!     Load/Store  =>  *cost += mem.access_range(core, base[b] + off, len, kind)
//!     Prefetch    =>  *cost += mem.prefetch(core, base[b] + off, len)
//!     Compute(n)  =>  *cost += Cost::compute(n)
//!     Charge(c)   =>  *cost += c
//! }
//! ```
//!
//! and both resolver paths (tight walk, reference mode) must be
//! bit-identical to that sequence — same `f64` operation order, same
//! counters, same cache/TLB state.

use crate::cost::Cost;
use crate::{lines_spanned, LINE};

/// One step of an [`AccessProgram`].
#[derive(Debug, Clone, Copy)]
pub enum StepOp {
    /// Demand-load `len` bytes at `bases[base] + offset`.
    Load,
    /// Store `len` bytes at `bases[base] + offset`.
    Store,
    /// Software-prefetch `len` bytes at `bases[base] + offset`.
    Prefetch,
    /// Charge `n` computed instructions (no memory traffic).
    Compute(u32),
    /// Charge a fixed cost (dispatch penalties, stalls).
    Charge(Cost),
}

/// A single resolved step: operation + address operands.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// What to do.
    pub op: StepOp,
    /// Index into the caller-supplied base array (memory ops only).
    pub base: u8,
    /// Byte offset from the base.
    pub offset: u32,
    /// Span length in bytes (memory ops only).
    pub len: u32,
}

impl Step {
    /// True for Load/Store/Prefetch.
    #[inline]
    fn is_mem(&self) -> bool {
        matches!(self.op, StepOp::Load | StepOp::Store | StepOp::Prefetch)
    }

    /// Absolute span start for the given base values.
    #[inline]
    pub(crate) fn addr(&self, bases: &[u64]) -> u64 {
        bases[self.base as usize] + u64::from(self.offset)
    }
}

/// A precompiled charge set for one (element, layout, stage) touch site.
#[derive(Debug, Clone)]
pub struct AccessProgram {
    pub(crate) steps: Vec<Step>,
    n_bases: u8,
    /// Total lines spanned by Load + Store steps (prefetch excluded —
    /// prefetch touches count no demand events).
    load_lines: u64,
    store_lines: u64,
}

impl AccessProgram {
    /// Number of base registers the caller must supply.
    pub fn base_count(&self) -> usize {
        usize::from(self.n_bases)
    }

    /// Number of steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Total cache lines spanned by demand (load/store) steps.
    pub fn demand_lines(&self) -> u64 {
        self.load_lines + self.store_lines
    }
}

/// Builder for [`AccessProgram`].
///
/// ```
/// use pm_mem::program::ProgramBuilder;
/// let prog = ProgramBuilder::new()
///     .prefetch(0, 0, 64)
///     .load(0, 0, 32)
///     .compute(18)
///     .store(1, 0, 64)
///     .build();
/// assert_eq!(prog.base_count(), 2);
/// assert_eq!(prog.demand_lines(), 2);
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    steps: Vec<Step>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        ProgramBuilder { steps: Vec::new() }
    }

    fn mem(mut self, op: StepOp, base: u8, offset: u32, len: u32) -> Self {
        assert!(len > 0, "zero-length memory step");
        self.steps.push(Step {
            op,
            base,
            offset,
            len,
        });
        self
    }

    /// Appends a demand load of `len` bytes at `bases[base] + offset`.
    pub fn load(self, base: u8, offset: u32, len: u32) -> Self {
        self.mem(StepOp::Load, base, offset, len)
    }

    /// Appends a store of `len` bytes at `bases[base] + offset`.
    pub fn store(self, base: u8, offset: u32, len: u32) -> Self {
        self.mem(StepOp::Store, base, offset, len)
    }

    /// Appends a software prefetch of `len` bytes.
    pub fn prefetch(self, base: u8, offset: u32, len: u32) -> Self {
        self.mem(StepOp::Prefetch, base, offset, len)
    }

    /// Appends an `n`-instruction compute charge.
    pub fn compute(mut self, n: u32) -> Self {
        self.steps.push(Step {
            op: StepOp::Compute(n),
            base: 0,
            offset: 0,
            len: 0,
        });
        self
    }

    /// Appends a fixed-cost charge.
    pub fn charge(mut self, c: Cost) -> Self {
        self.steps.push(Step {
            op: StepOp::Charge(c),
            base: 0,
            offset: 0,
            len: 0,
        });
        self
    }

    /// Finalizes the program.
    pub fn build(self) -> AccessProgram {
        let mut n_bases = 0u16;
        let (mut load_lines, mut store_lines) = (0u64, 0u64);
        for s in &self.steps {
            if s.is_mem() {
                n_bases = n_bases.max(u16::from(s.base) + 1);
                // Offset-relative line count: exact for the line-aligned
                // bases every simulated allocator hands out (an
                // unaligned base can add one more line; the resolver
                // recomputes exact counts from the live base values).
                let n = lines_spanned(u64::from(s.offset), u64::from(s.len));
                match s.op {
                    StepOp::Load => load_lines += n,
                    StepOp::Store => store_lines += n,
                    _ => {}
                }
            }
        }
        assert!(n_bases <= 16, "too many base registers");
        AccessProgram {
            steps: self.steps,
            n_bases: n_bases as u8,
            load_lines,
            store_lines,
        }
    }
}

/// Returns the deduplicated, sorted list of line-offsets (in lines,
/// relative to a line-aligned base) covered by `(offset, len)` field
/// spans — the build-time analogue of the per-packet "compute the line
/// of every field, sort, dedup" loop the X-Change commit path used to
/// run. Exact when the base the program will run against is 64-byte
/// aligned, which every simulated allocator guarantees.
pub fn dedup_field_lines(fields: &[(u32, u32)]) -> Vec<u32> {
    let mut lines: Vec<u32> = Vec::new();
    for &(off, size) in fields {
        assert!(size > 0, "zero-sized field");
        let first = off / LINE as u32;
        let last = (off + size - 1) / LINE as u32;
        for l in first..=last {
            lines.push(l);
        }
    }
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_bases_and_lines() {
        let p = ProgramBuilder::new()
            .prefetch(0, 0, 64)
            .load(0, 0, 32)
            .compute(18)
            .prefetch(1, 0, 128)
            .compute(2)
            .store(2, 0, 64)
            .compute(16)
            .build();
        assert_eq!(p.base_count(), 3);
        assert_eq!(p.step_count(), 7);
        assert_eq!(p.load_lines, 1);
        assert_eq!(p.store_lines, 1);
    }

    #[test]
    fn dedup_field_lines_matches_per_packet_dedup() {
        // Two fields in line 0, one straddling lines 1-2.
        let lines = dedup_field_lines(&[(0, 8), (60, 2), (100, 30)]);
        assert_eq!(lines, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_len_step_rejected() {
        let _ = ProgramBuilder::new().load(0, 0, 0);
    }
}
