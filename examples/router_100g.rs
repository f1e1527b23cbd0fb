//! Reproduce the paper's headline experiment (Fig. 1): a standard IP
//! router on a single 2.3-GHz core, offered-load sweep at up to
//! 100 Gbps, vanilla FastClick vs full PacketMill — showing how
//! PacketMill shifts the tail-latency/throughput knee.
//!
//! The ten (offered, variant) points are independent experiments, so
//! they run on the parallel sweep runner: one run per core, results
//! collected in input order (identical to a serial sweep).
//!
//! Run with: `cargo run --release --example router_100g [-- --threads N]
//! [--faults <spec>] [--workload <spec>]`; any other flag is a usage
//! error (exit 1).

use packetmill::{Cli, ExperimentBuilder, MetadataModel, Nf, OptLevel, SweepSpec, Table};

fn main() {
    let cli = Cli::parse(std::env::args().skip(1))
        .and_then(|cli| cli.only(&["--threads", "--faults", "--workload"]))
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    const OFFERED: [f64; 5] = [20.0, 40.0, 60.0, 80.0, 100.0];

    let mut spec = SweepSpec::from_cli(&cli).progress(true);
    for offered in OFFERED {
        spec.push(
            format!("{offered:.0}G vanilla"),
            ExperimentBuilder::new(Nf::Router)
                .metadata_model(MetadataModel::Copying)
                .optimization(OptLevel::Vanilla)
                .frequency_ghz(2.3)
                .offered_gbps(offered)
                .packets(40_000),
        );
        spec.push(
            format!("{offered:.0}G packetmill"),
            ExperimentBuilder::new(Nf::Router)
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .frequency_ghz(2.3)
                .offered_gbps(offered)
                .packets(40_000),
        );
    }
    let results = spec.run();
    let ms = results.expect_all();

    let mut table = Table::new(vec![
        "offered (Gbps)",
        "vanilla Gbps",
        "vanilla p99 (us)",
        "packetmill Gbps",
        "packetmill p99 (us)",
    ]);
    for (offered, pair) in OFFERED.iter().zip(ms.chunks_exact(2)) {
        let (vanilla, packetmill) = (&pair[0], &pair[1]);
        table.row(vec![
            format!("{offered:.0}"),
            format!("{:.1}", vanilla.throughput_gbps),
            format!("{:.0}", vanilla.p99_latency_us),
            format!("{:.1}", packetmill.throughput_gbps),
            format!("{:.0}", packetmill.p99_latency_us),
        ]);
    }
    println!("IP router, one core @ 2.3 GHz, campus-mix traffic (paper Fig. 1)\n");
    println!("{table}");
    println!("PacketMill sustains the offered load with flat tail latency while");
    println!("vanilla FastClick saturates and its p99 explodes — the shifted knee.");
    eprintln!("{}", results.report());
}
