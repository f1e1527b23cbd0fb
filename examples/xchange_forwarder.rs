//! Compare the three metadata-management models of paper §2.2/§3.1 on
//! the simple forwarder (Fig. 5a), and show the optimizer's
//! transformation log for the X-Change configuration.
//!
//! Run with: `cargo run --release --example xchange_forwarder`

use packetmill::{ExperimentBuilder, MetadataModel, Nf, OptLevel, Table};

fn main() {
    let mut table = Table::new(vec!["freq (GHz)", "copying", "overlaying", "x-change"]);
    for freq in [1.2, 1.8, 2.3, 3.0] {
        let gbps: Vec<f64> = [
            MetadataModel::Copying,
            MetadataModel::Overlaying,
            MetadataModel::XChange,
        ]
        .iter()
        .map(|&model| {
            ExperimentBuilder::new(Nf::Forwarder)
                .metadata_model(model)
                .frequency_ghz(freq)
                .packets(30_000)
                .run()
                .expect("forwarder run")
                .throughput_gbps
        })
        .collect();
        table.row_f64(format!("{freq:.1}"), &gbps, 1);
    }
    println!("Simple forwarder, one core, campus-mix traffic (paper Fig. 5a)\n");
    println!("{table}");

    // Show what the optimizer actually does to the configuration.
    let ir = ExperimentBuilder::new(Nf::Forwarder)
        .metadata_model(MetadataModel::XChange)
        .optimization(OptLevel::AllSource)
        .build_ir()
        .expect("optimizer runs");
    println!("--- what the optimizer did ---\n");
    for line in &ir.log {
        println!("  - {line}");
    }
}
