//! The multicore NAT experiment (paper Fig. 10): RSS spreads flows over
//! 1–4 cores; the stateful NAT (cuckoo flow table) scales, and
//! PacketMill's gains persist across core counts.
//!
//! The eight (cores, variant) configurations are independent, so they
//! run on the parallel sweep runner — parallelism across experiments,
//! never inside one, so each simulated run stays deterministic.
//!
//! Run with: `cargo run --release --example nat_multicore [-- --threads N]`

use packetmill::{Cli, ExperimentBuilder, MetadataModel, Nf, OptLevel, SweepSpec, Table};

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });

    let mut spec = SweepSpec::from_cli(&cli).progress(true);
    for cores in 1..=4usize {
        spec.push(
            format!("{cores}c vanilla"),
            ExperimentBuilder::new(Nf::Nat)
                .metadata_model(MetadataModel::Copying)
                .optimization(OptLevel::Vanilla)
                .cores(cores)
                .frequency_ghz(2.3)
                .packets(40_000),
        );
        spec.push(
            format!("{cores}c packetmill"),
            ExperimentBuilder::new(Nf::Nat)
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .cores(cores)
                .frequency_ghz(2.3)
                .packets(40_000),
        );
    }
    let results = spec.run();
    let ms = results.expect_all();

    let mut table = Table::new(vec!["cores", "vanilla Gbps", "packetmill Gbps", "speedup"]);
    for (cores, pair) in (1..=4usize).zip(ms.chunks_exact(2)) {
        let (vanilla, packetmill) = (&pair[0], &pair[1]);
        table.row(vec![
            format!("{cores}"),
            format!("{:.1}", vanilla.throughput_gbps),
            format!("{:.1}", packetmill.throughput_gbps),
            format!(
                "{:.2}x",
                packetmill.throughput_gbps / vanilla.throughput_gbps
            ),
        ]);
    }
    println!("Stateful NAT @2.3 GHz, RSS over cores (paper Fig. 10)\n");
    println!("{table}");
    eprintln!("{}", results.report());
}
