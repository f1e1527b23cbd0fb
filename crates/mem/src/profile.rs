//! Scoped cost/event attribution — the simulator's "perf record".
//!
//! The hierarchy already maintains aggregate [`MemCounters`]; this module
//! adds an optional attribution layer that tags every counted cache/TLB
//! event and every explicitly charged [`Cost`] with the *currently
//! executing scope* — an element of the NF graph or one of the synthetic
//! pipeline stages (`rx/pmd`, `tx`, `mempool`, `metadata`, `scheduler`).
//! Counters are attributed per scope interval: each scope switch folds
//! the counter delta since the previous switch into the outgoing scope.
//! NIC DMA runs on no core and is attributed to no scope.
//!
//! Attribution is strictly bookkeeping: enabling it never changes cache
//! state, charged costs, or any measurement, so profiled and unprofiled
//! runs produce bit-identical [`Cost`] streams. When disabled (the
//! default) every hook is a no-op.
//!
//! [`MemCounters`]: crate::MemCounters
//! [`Cost`]: crate::Cost

use crate::cost::Cost;
use crate::hierarchy::MemCounters;

/// Handle to a registered attribution scope.
///
/// The built-in pipeline stages have fixed ids ([`SCOPE_RX`] …
/// [`SCOPE_SCHEDULER`]); element scopes are registered by name via
/// [`MemoryHierarchy::register_scope`](crate::MemoryHierarchy::register_scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(pub(crate) usize);

/// NIC receive path: PMD poll loop, CQE/descriptor handling, RX doorbell.
pub const SCOPE_RX: ScopeId = ScopeId(0);
/// NIC transmit path: WQE writes, completion reaping, TX doorbell.
pub const SCOPE_TX: ScopeId = ScopeId(1);
/// Buffer-pool ring traffic (alloc/free cycling through the mempool).
pub const SCOPE_MEMPOOL: ScopeId = ScopeId(2);
/// Per-packet metadata construction/teardown (`begin_packet`/`end_packet`).
pub const SCOPE_METADATA: ScopeId = ScopeId(3);
/// Engine overhead not tied to an element: batch amortization, scheduling.
pub const SCOPE_SCHEDULER: ScopeId = ScopeId(4);

/// Names of the built-in stages, indexed by their fixed [`ScopeId`].
pub(crate) const BUILTIN_SCOPES: [&str; 5] = ["rx/pmd", "tx", "mempool", "metadata", "scheduler"];

/// Everything attributed to one scope since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScopeProfile {
    /// Cache/TLB events that occurred while this scope was current.
    pub counters: MemCounters,
    /// Cost explicitly charged to this scope.
    pub cost: Cost,
    /// Packets processed by this scope (hops for elements, bursts' packet
    /// counts for the rx/tx stages).
    pub packets: u64,
}

/// The attribution table carried by a hierarchy when profiling is on.
#[derive(Debug, Clone)]
pub(crate) struct Attribution {
    /// `(name, profile)` in registration order: built-ins first, then
    /// element scopes in the order the runtime registered them.
    scopes: Vec<(String, ScopeProfile)>,
    current: usize,
}

impl Attribution {
    pub(crate) fn new() -> Self {
        Attribution {
            scopes: BUILTIN_SCOPES
                .iter()
                .map(|n| (n.to_string(), ScopeProfile::default()))
                .collect(),
            current: SCOPE_SCHEDULER.0,
        }
    }

    pub(crate) fn register(&mut self, name: &str) -> ScopeId {
        if let Some(i) = self.scopes.iter().position(|(n, _)| n == name) {
            return ScopeId(i);
        }
        self.scopes
            .push((name.to_string(), ScopeProfile::default()));
        ScopeId(self.scopes.len() - 1)
    }

    pub(crate) fn set_current(&mut self, id: ScopeId) -> ScopeId {
        let prev = ScopeId(self.current);
        self.current = id.0;
        prev
    }

    /// Folds a counter interval into the current scope.
    pub(crate) fn add_counters(&mut self, delta: &MemCounters) {
        add(&mut self.scopes[self.current].1.counters, delta);
    }

    /// Panics on a foreign `id`: a dropped charge would leave the ledger
    /// unreconciled without a word.
    pub(crate) fn charge(&mut self, id: ScopeId, cost: Cost) {
        self.scopes[id.0].1.cost += cost;
    }

    /// Panics on a foreign `id`, like [`Self::charge`].
    pub(crate) fn add_packets(&mut self, id: ScopeId, n: u64) {
        self.scopes[id.0].1.packets += n;
    }

    pub(crate) fn reset(&mut self) {
        for (_, p) in &mut self.scopes {
            *p = ScopeProfile::default();
        }
    }

    /// The records, with the `pending` interval not yet folded (the
    /// events since the last scope switch) added to the current scope.
    pub(crate) fn records(&self, pending: &MemCounters) -> Vec<(String, ScopeProfile)> {
        let mut scopes = self.scopes.clone();
        add(&mut scopes[self.current].1.counters, pending);
        scopes
    }
}

/// `base += delta`, field by field.
fn add(base: &mut MemCounters, delta: &MemCounters) {
    base.loads += delta.loads;
    base.stores += delta.stores;
    base.l1d_load_misses += delta.l1d_load_misses;
    base.llc_loads += delta.llc_loads;
    base.llc_load_misses += delta.llc_load_misses;
    base.llc_stores += delta.llc_stores;
    base.llc_store_misses += delta.llc_store_misses;
    base.dma_write_lines += delta.dma_write_lines;
    base.dma_read_lines += delta.dma_read_lines;
    base.dtlb_misses += delta.dtlb_misses;
    base.page_walks += delta.page_walks;
    base.prefetch_misses += delta.prefetch_misses;
}
