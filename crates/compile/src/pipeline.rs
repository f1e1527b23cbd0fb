//! The optimization IR and the Fig. 3 pass order.

use crate::passes;
use pm_click::{ConfigGraph, ExecPlan, MetadataModel};

/// The unit the passes transform: the parsed configuration plus the
/// evolving execution plan, with a human-readable transformation log.
#[derive(Debug, Clone)]
pub struct MillIr {
    /// The (possibly transformed) configuration graph.
    pub config: ConfigGraph,
    /// The (possibly transformed) execution plan.
    pub plan: ExecPlan,
    /// One line per applied transformation.
    pub log: Vec<String>,
}

impl MillIr {
    /// Wraps a configuration with a vanilla plan under the given
    /// metadata model.
    pub fn new(config: ConfigGraph, model: MetadataModel) -> Self {
        MillIr {
            config,
            plan: ExecPlan::vanilla(model),
            log: Vec::new(),
        }
    }

    /// Appends a log line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.log.push(line.into());
    }
}

/// The full PacketMill source-optimization pipeline (Fig. 3 ②), in
/// order: dead-element elimination, devirtualization, constant
/// embedding, static graph. Field reordering (Fig. 3 ③) runs separately
/// because it needs an access profile.
pub fn packetmill(ir: &mut MillIr) {
    passes::dead_elements(ir);
    passes::devirtualize(ir);
    passes::embed_constants(ir);
    passes::static_graph(ir);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_click::DispatchMode;

    fn ir() -> MillIr {
        let cfg = ConfigGraph::parse(
            "in :: FromDPDKDevice(0); out :: ToDPDKDevice(0); in -> Null -> out;",
        )
        .unwrap();
        MillIr::new(cfg, MetadataModel::Copying)
    }

    #[test]
    fn packetmill_pipeline_sets_all_flags() {
        let mut i = ir();
        packetmill(&mut i);
        assert_eq!(i.plan.dispatch, DispatchMode::Inlined);
        assert!(i.plan.constants_embedded);
        assert!(i.plan.static_graph);
        assert_eq!(i.log.len(), 4, "one line per pass: {:?}", i.log);
    }

    #[test]
    fn empty_pipeline_is_identity() {
        // A second run finds nothing left to change: only dead-element
        // elimination logs again ("nothing to remove").
        let mut i = ir();
        packetmill(&mut i);
        let (plan, config, lines) = (i.plan.clone(), i.config.clone(), i.log.len());
        packetmill(&mut i);
        assert_eq!(i.plan, plan);
        assert_eq!(i.config, config);
        assert_eq!(i.log.len(), lines + 1);
    }
}
