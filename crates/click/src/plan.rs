//! The execution plan: which PacketMill optimizations are active.
//!
//! `pm-compile`'s pass functions transform a vanilla plan step by step
//! into the evaluation variants of Fig. 4 / Table 1; the runtime consults
//! the plan on every dispatch, parameter access, and metadata touch.

use crate::packet::default_packet_layout;
use crate::StructLayout;
use pm_dpdk::MetadataModel;

/// How element-to-element calls are performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Indirect call through the element vtable (vanilla Click).
    Virtual,
    /// Direct call — the `click-devirtualize` result: the callee type is
    /// known, but the call remains (function pointer replaced).
    Direct,
    /// Fully inlined — static graph embedding lets the compiler inline
    /// the whole per-packet path.
    Inlined,
}

/// The set of optimizations the runtime honours.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// Call dispatch mode.
    pub dispatch: DispatchMode,
    /// Element parameters embedded as constants (no per-packet loads,
    /// folded branches).
    pub constants_embedded: bool,
    /// Elements + connections declared statically: arena state layout,
    /// embedded next-hops, and (with Copying) scalar replacement of the
    /// per-packet `Packet` object.
    pub static_graph: bool,
    /// Metadata-management model.
    pub metadata_model: MetadataModel,
    /// The `Packet` class layout (replaced by the reordering pass).
    pub packet_layout: StructLayout,
    /// Recycle `Packet` objects LIFO instead of FIFO (warm-pool
    /// ablation; real FastClick pools behave FIFO under forwarding).
    pub lifo_packet_pool: bool,
}

impl ExecPlan {
    /// Vanilla FastClick: virtual dispatch, dynamic graph, parameters in
    /// memory.
    pub fn vanilla(model: MetadataModel) -> Self {
        ExecPlan {
            dispatch: DispatchMode::Virtual,
            constants_embedded: false,
            static_graph: false,
            metadata_model: model,
            packet_layout: default_packet_layout(),
            lifo_packet_pool: false,
        }
    }

    /// True when the per-packet `Packet` object is scalar-replaced: the
    /// static graph inlines the whole path, so (under Copying) the
    /// mbuf→Packet conversion lives in registers and the object pool is
    /// bypassed.
    pub fn sroa_active(&self) -> bool {
        self.static_graph && self.metadata_model == MetadataModel::Copying
    }

    /// Short human-readable tag for tables.
    pub fn label(&self) -> String {
        let opt = match (self.dispatch, self.constants_embedded, self.static_graph) {
            (DispatchMode::Virtual, false, false) => "vanilla".to_string(),
            (DispatchMode::Direct, false, false) => "devirtualize".to_string(),
            (DispatchMode::Virtual, true, false) => "constants".to_string(),
            (DispatchMode::Inlined, false, true) => "static-graph".to_string(),
            (DispatchMode::Inlined, true, true) => "all".to_string(),
            (d, c, s) => format!("{d:?}/const={c}/static={s}"),
        };
        format!("{opt}+{}", self.metadata_model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_constructors() {
        let v = ExecPlan::vanilla(MetadataModel::Copying);
        assert_eq!(v.dispatch, DispatchMode::Virtual);
        assert!(!v.constants_embedded && !v.static_graph);
        assert!(!v.sroa_active());
        assert_eq!(v.packet_layout, default_packet_layout());

        let s = ExecPlan {
            dispatch: DispatchMode::Inlined,
            static_graph: true,
            ..v
        };
        assert!(s.sroa_active());
        assert_eq!(s.label(), "static-graph+copying");

        let a = ExecPlan {
            constants_embedded: true,
            metadata_model: MetadataModel::XChange,
            ..s
        };
        assert!(!a.sroa_active(), "SROA applies to the Copying model only");
        assert_eq!(a.label(), "all+x-change");
    }

    #[test]
    fn labels() {
        let v = ExecPlan::vanilla(MetadataModel::Copying);
        assert_eq!(v.label(), "vanilla+copying");
        let d = ExecPlan {
            dispatch: DispatchMode::Direct,
            ..v
        };
        assert_eq!(d.label(), "devirtualize+copying");
    }
}
