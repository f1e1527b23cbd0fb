//! The individual optimization passes: plain functions over [`MillIr`].

use crate::pipeline::MillIr;
use pm_click::{DispatchMode, FieldProfile, StructLayout};
use std::collections::HashSet;

/// Removes declared elements with no connection path from any source —
/// the `click-undead` analogue from the Click optimization toolkit
/// (paper §2.1 ①).
pub fn dead_elements(ir: &mut MillIr) {
    let cfg = &ir.config;
    // Reachability from every FromDPDKDevice.
    let mut live: HashSet<usize> = cfg
        .declarations
        .iter()
        .enumerate()
        .filter(|(_, d)| d.class == "FromDPDKDevice")
        .map(|(i, _)| i)
        .collect();
    loop {
        let mut grew = false;
        for c in &cfg.connections {
            if live.contains(&c.from) && live.insert(c.to) {
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    let dead: Vec<usize> = (0..cfg.declarations.len())
        .filter(|i| !live.contains(i))
        .collect();
    if dead.is_empty() {
        ir.note("dead-element-elimination: nothing to remove");
        return;
    }
    // Rebuild with dead declarations (and their edges) removed.
    let mut remap = vec![usize::MAX; cfg.declarations.len()];
    let mut decls = Vec::new();
    for (i, d) in cfg.declarations.iter().enumerate() {
        if live.contains(&i) {
            remap[i] = decls.len();
            decls.push(d.clone());
        }
    }
    let conns = cfg
        .connections
        .iter()
        .filter(|c| live.contains(&c.from) && live.contains(&c.to))
        .map(|c| pm_click::Connection {
            from: remap[c.from],
            from_port: c.from_port,
            to: remap[c.to],
            to_port: c.to_port,
        })
        .collect();
    let names: Vec<String> = dead
        .iter()
        .map(|&i| ir.config.declarations[i].name.clone())
        .collect();
    ir.config.declarations = decls;
    ir.config.connections = conns;
    ir.note(format!(
        "dead-element-elimination: removed {} element(s): {}",
        names.len(),
        names.join(", ")
    ));
}

/// Replaces virtual calls with direct calls (`click-devirtualize`,
/// paper §2.1 ① / §3.2.1).
pub fn devirtualize(ir: &mut MillIr) {
    if ir.plan.dispatch == DispatchMode::Virtual {
        ir.plan.dispatch = DispatchMode::Direct;
        let n = ir.config.declarations.len();
        ir.note(format!(
            "devirtualize: {n} element classes resolved; virtual calls replaced with direct calls"
        ));
    }
}

/// Embeds constant element parameters into the code (paper §3.2.1:
/// constant propagation, folding, dead-code elimination, unrolling).
pub fn embed_constants(ir: &mut MillIr) {
    if !ir.plan.constants_embedded {
        ir.plan.constants_embedded = true;
        let params: usize = ir.config.declarations.iter().map(|d| d.args.len()).sum();
        ir.note(format!(
            "constant-embedding: {params} configuration parameter(s) embedded as constants"
        ));
    }
}

/// Declares the element graph statically (paper §3.2.1): arena layout,
/// embedded connections, full inlining — which in turn lets the per-packet
/// metadata conversion be scalar-replaced under the Copying model.
pub fn static_graph(ir: &mut MillIr) {
    if !ir.plan.static_graph {
        ir.plan.static_graph = true;
        ir.plan.dispatch = DispatchMode::Inlined;
        ir.note(format!(
            "static-graph: {} element(s) and {} connection(s) embedded statically; \
             per-packet path fully inlined{}",
            ir.config.declarations.len(),
            ir.config.connections.len(),
            if ir.plan.sroa_active() {
                "; Packet conversion scalar-replaced"
            } else {
                ""
            }
        ));
    }
}

/// Reorders the `Packet` metadata structure by access frequency
/// (paper §3.2.2: the LLVM LTO pass over GEPI references), from a
/// per-field access profile collected by a profiling run of the NF.
///
/// Fields never accessed keep their relative order after the hot ones —
/// the pass "only sorts the variables" like the paper's current version.
pub fn reorder_fields(ir: &mut MillIr, profile: &FieldProfile) {
    let order = hot_order(profile, &ir.plan.packet_layout);
    if order.is_empty() {
        ir.note("reorder-fields: no profile data; layout unchanged");
        return;
    }
    let before = ir.plan.packet_layout.lines_touched(&order);
    let new_layout = ir.plan.packet_layout.reordered(&order);
    let after = new_layout.lines_touched(&order);
    ir.plan.packet_layout = new_layout;
    ir.note(format!(
        "reorder-fields: {} hot field(s) moved to the front; hot set now spans {after} \
         line(s) (was {before})",
        order.len()
    ));
}

/// The hot-first field order `profile` implies for `layout`.
fn hot_order(profile: &FieldProfile, layout: &StructLayout) -> Vec<&'static str> {
    let mut hot: Vec<(&'static str, u64)> = layout
        .fields()
        .iter()
        .filter_map(|f| profile.get(f.name).map(|&c| (f.name, c)))
        .filter(|&(_, c)| c > 0)
        .collect();
    // Sort by count descending; ties keep original layout order
    // (sort is stable over the layout-ordered input).
    hot.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    hot.into_iter().map(|(n, _)| n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::MillIr;
    use pm_click::{ConfigGraph, MetadataModel};

    fn ir_from(cfg: &str) -> MillIr {
        MillIr::new(ConfigGraph::parse(cfg).unwrap(), MetadataModel::Copying)
    }

    #[test]
    fn dead_elements_removed() {
        let mut ir = ir_from(
            "in :: FromDPDKDevice(0); out :: ToDPDKDevice(0); orphan :: Counter; \
             dead2 :: Null; orphan -> dead2 -> Discard; in -> Null -> out;",
        );
        let before = ir.config.declarations.len();
        dead_elements(&mut ir);
        // orphan, dead2, and the inline Discard die; Null@N stays.
        assert_eq!(ir.config.declarations.len(), before - 3);
        assert!(ir.config.find("orphan").is_none());
        assert!(ir.config.find("in").is_some());
        // Connections reindexed and still valid.
        for c in &ir.config.connections {
            assert!(c.from < ir.config.declarations.len());
            assert!(c.to < ir.config.declarations.len());
        }
    }

    #[test]
    fn dead_pass_noop_when_all_live() {
        let mut ir = ir_from("in :: FromDPDKDevice(0); in -> Discard;");
        let before = ir.config.clone();
        dead_elements(&mut ir);
        assert_eq!(ir.config, before);
    }

    #[test]
    fn devirtualize_idempotent() {
        let mut ir = ir_from("in :: FromDPDKDevice(0); in -> Discard;");
        devirtualize(&mut ir);
        assert_eq!(ir.plan.dispatch, DispatchMode::Direct);
        let log_len = ir.log.len();
        devirtualize(&mut ir);
        assert_eq!(ir.log.len(), log_len, "second run is a no-op");
    }

    #[test]
    fn reorder_uses_profile_counts() {
        let mut ir = ir_from("in :: FromDPDKDevice(0); in -> Discard;");
        let mut prof = FieldProfile::new();
        prof.insert("dst_ip_anno", 100);
        prof.insert("net_hdr", 50);
        prof.insert("paint_anno", 150);
        reorder_fields(&mut ir, &prof);
        let l = &ir.plan.packet_layout;
        assert_eq!(l.offset_of("paint_anno"), 0);
        assert!(l.offset_of("dst_ip_anno") < l.offset_of("net_hdr"));
        assert_eq!(
            l.lines_touched(&["paint_anno", "dst_ip_anno", "net_hdr"]),
            1
        );
        // Field set preserved.
        assert_eq!(
            l.fields().len(),
            pm_click::default_packet_layout().fields().len()
        );
    }

    #[test]
    fn reorder_without_profile_is_noop() {
        let mut ir = ir_from("in :: FromDPDKDevice(0); in -> Discard;");
        let before = ir.plan.packet_layout.clone();
        reorder_fields(&mut ir, &FieldProfile::new());
        assert_eq!(ir.plan.packet_layout, before);
    }

    #[test]
    fn unknown_profile_fields_ignored() {
        let mut ir = ir_from("in :: FromDPDKDevice(0); in -> Discard;");
        let mut prof = FieldProfile::new();
        prof.insert("no_such_field", 10);
        prof.insert("rss_hash", 5);
        reorder_fields(&mut ir, &prof);
        assert_eq!(ir.plan.packet_layout.offset_of("rss_hash"), 0);
    }
}
