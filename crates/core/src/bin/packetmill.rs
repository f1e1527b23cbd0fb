//! The `packetmill` command-line tool: run any Click-language
//! configuration through the optimizer and the simulated 100-Gbps
//! testbed, print the optimization log and the measurements.
//!
//! ```text
//! packetmill --nf router --model xchange --opt all --freq 2.3
//! packetmill --config my.click --model copying --opt vanilla
//! packetmill --nf nat --cores 4 --offered 80 --packets 100000
//! ```

use packetmill::{ExperimentBuilder, MetadataModel, Nf, OptLevel, TrafficProfile};
use std::process::ExitCode;

const USAGE: &str = "\
packetmill — run an NF through the PacketMill optimizer + simulated testbed

USAGE:
    packetmill [OPTIONS]

OPTIONS (a value flag takes `--flag value` or `--flag=value`):
    --nf <NAME>          forwarder | router | ids-router | nat | firewall [default: router]
    --config <FILE>      run a Click configuration file instead of a preset
    --model <MODEL>      copying | overlaying | xchange          [default: copying]
    --opt <LEVEL>        vanilla | devirtualize | constants | static | all | full
                                                                 [default: vanilla]
    --freq <GHZ>         core frequency in GHz                   [default: 2.3]
    --cores <N>          processing cores (RSS over queues)      [default: 1]
    --nics <N>           NIC ports                               [default: 1]
    --offered <GBPS>     offered load per NIC                    [default: 100]
    --packets <N>        generated packets per NIC               [default: 60000]
    --size <BYTES>       fixed packet size (default: campus mix)
    --pcap <FILE>        replay a pcap capture instead of synthetic traffic
    --seed <N>           RNG seed                                [default: 51966]
    --show-log           print the optimizer's transformation log
    --handlers           print per-element packet/drop counters
    -h, --help           print this help
";

#[derive(Debug, PartialEq)]
struct Options {
    nf: Nf,
    model: MetadataModel,
    opt: OptLevel,
    freq: f64,
    cores: usize,
    nics: usize,
    offered: f64,
    packets: usize,
    size: Option<usize>,
    pcap: Option<String>,
    seed: u64,
    show_log: bool,
    handlers: bool,
}

/// Parses the flags (without the program name).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        nf: Nf::Router,
        model: MetadataModel::Copying,
        opt: OptLevel::Vanilla,
        freq: 2.3,
        cores: 1,
        nics: 1,
        offered: 100.0,
        packets: 60_000,
        size: None,
        pcap: None,
        seed: 0xCAFE,
        show_log: false,
        handlers: false,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        if inline.is_some()
            && matches!(flag.as_str(), "--show-log" | "--handlers" | "-h" | "--help")
        {
            return Err(format!("{flag} takes no value"));
        }
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--nf" => {
                o.nf = match value()?.as_str() {
                    "forwarder" => Nf::Forwarder,
                    "router" => Nf::Router,
                    "ids-router" => Nf::IdsRouter,
                    "nat" => Nf::Nat,
                    "firewall" => Nf::Firewall,
                    other => return Err(format!("unknown NF {other:?}")),
                }
            }
            "--config" => {
                let path = value()?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                o.nf = Nf::Custom(text);
            }
            "--model" => {
                o.model = match value()?.as_str() {
                    "copying" => MetadataModel::Copying,
                    "overlaying" => MetadataModel::Overlaying,
                    "xchange" | "x-change" => MetadataModel::XChange,
                    other => return Err(format!("unknown model {other:?}")),
                }
            }
            "--opt" => {
                o.opt = match value()?.as_str() {
                    "vanilla" => OptLevel::Vanilla,
                    "devirtualize" => OptLevel::Devirtualize,
                    "constants" => OptLevel::ConstantEmbed,
                    "static" => OptLevel::StaticGraph,
                    "all" => OptLevel::AllSource,
                    "full" => OptLevel::Full,
                    other => return Err(format!("unknown opt level {other:?}")),
                }
            }
            "--freq" => o.freq = positive("--freq", &value()?)?,
            "--cores" => o.cores = at_least_one("--cores", &value()?)?,
            "--nics" => o.nics = at_least_one("--nics", &value()?)?,
            "--offered" => o.offered = positive("--offered", &value()?)?,
            "--packets" => o.packets = int(&value()?)?,
            "--size" => o.size = Some(frame_size(&value()?)?),
            "--pcap" => o.pcap = Some(value()?),
            "--seed" => o.seed = int(&value()?)?,
            "--show-log" => o.show_log = true,
            "--handlers" => o.handlers = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(o)
}

/// A rate or a frequency: finite and above 0 (a zero offered load
/// never finishes sending, a negative one sends everything at t = 0).
fn positive(flag: &str, s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        Ok(_) => Err(format!("{flag} must be finite and above 0, got {s:?}")),
        Err(_) => Err(format!("not a number: {s:?}")),
    }
}

/// An integer, read exactly: decimal, `k`/`M`-suffixed or `0x` hex —
/// the count syntax of the `--faults` / `--workload` grammars.
fn int<T: TryFrom<u64>>(s: &str) -> Result<T, String> {
    pm_sim::spec::parse_count(s)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("not an integer: {s:?}"))
}

/// A fixed frame size: an Ethernet frame without FCS, 64..=1500 bytes.
fn frame_size(s: &str) -> Result<usize, String> {
    match int(s)? {
        n @ 64..=1500 => Ok(n),
        n => Err(format!("--size must be in 64..=1500 bytes, got {n}")),
    }
}

/// A core or NIC count.
fn at_least_one(flag: &str, s: &str) -> Result<usize, String> {
    match int(s)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

fn main() -> ExitCode {
    let o = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut builder = ExperimentBuilder::new(o.nf.clone())
        .metadata_model(o.model)
        .optimization(o.opt)
        .frequency_ghz(o.freq)
        .cores(o.cores)
        .nics(o.nics)
        .offered_gbps(o.offered)
        .packets(o.packets)
        .seed(o.seed);
    if let Some(size) = o.size {
        builder = builder.traffic(TrafficProfile::FixedSize(size));
    }
    if let Some(path) = &o.pcap {
        match packetmill::Trace::from_pcap(std::path::Path::new(path)) {
            Ok(t) => {
                println!(
                    "loaded {path}: {} frames, mean {:.0} B",
                    t.len(),
                    t.mean_frame_len()
                );
                builder = builder.trace(t);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if o.show_log {
        match builder.build_ir() {
            Ok(ir) => {
                println!("optimizer log:");
                for line in &ir.log {
                    println!("  - {line}");
                }
                if ir.log.is_empty() {
                    println!("  (no transformations at this level)");
                }
                println!();
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    match builder.run_with_handlers() {
        Ok((m, handlers)) => {
            println!(
                "configuration : {} / {:?} / {:?}",
                nf_name(&o.nf),
                o.model,
                o.opt
            );
            println!(
                "testbed       : {} core(s) @ {} GHz, {} NIC(s), {} Gbps offered",
                o.cores, o.freq, o.nics, o.offered
            );
            println!(
                "throughput    : {:.2} Gbps ({:.2} Mpps)",
                m.throughput_gbps, m.mpps
            );
            println!(
                "latency       : p50 {:.1} us   p99 {:.1} us   mean {:.1} us",
                m.median_latency_us, m.p99_latency_us, m.mean_latency_us
            );
            println!("ipc           : {:.2}", m.ipc);
            println!(
                "llc           : {:.0}k loads / {:.0}k misses per 100 ms ({:.1}% miss)",
                m.llc_loads_per_100ms / 1e3,
                m.llc_misses_per_100ms / 1e3,
                m.llc_miss_pct
            );
            println!(
                "drops         : {} at NIC, {} in NF, {} at TX ring",
                m.rx_dropped, m.nf_dropped, m.tx_dropped
            );
            if o.handlers {
                println!("\nper-element handlers:");
                for (name, seen, dropped) in handlers {
                    println!("  {name:<24} packets {seen:>9}   drops {dropped:>8}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn nf_name(nf: &Nf) -> &'static str {
    match nf {
        Nf::Forwarder => "forwarder",
        Nf::Router => "router",
        Nf::IdsRouter => "ids-router",
        Nf::Nat => "nat",
        Nf::Firewall => "firewall",
        Nf::NatScale(_) => "nat-scale",
        Nf::FirewallScale(_) => "firewall-scale",
        Nf::RouterScale(_) => "router-scale",
        Nf::WorkPackage { .. } | Nf::WorkPackageKb { .. } => "workpackage",
        Nf::Custom(_) => "custom config",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn integer_flags_are_read_as_integers() {
        let o = parse(&[
            "--seed",
            "0xCAFE",
            "--cores",
            "4",
            "--nics",
            "2",
            "--packets",
            "4k",
        ])
        .expect("valid flags");
        assert_eq!((o.seed, o.cores, o.nics, o.packets), (0xCAFE, 4, 2, 4_000));
        // Through `f64` this seed would have run as 2^53.
        let o = parse(&["--seed", "9007199254740993"]).expect("valid seed");
        assert_eq!(o.seed, (1 << 53) + 1);
    }

    #[test]
    fn both_value_forms_parse_to_the_same_options() {
        let spaced = parse(&[
            "--nf",
            "nat",
            "--model",
            "xchange",
            "--opt",
            "full",
            "--freq",
            "3.0",
            "--cores",
            "2",
            "--nics",
            "2",
            "--offered",
            "80",
            "--packets",
            "4k",
            "--size",
            "64",
            "--pcap",
            "a.pcap",
            "--seed",
            "0x10",
            "--show-log",
            "--handlers",
        ])
        .expect("valid flags");
        let inline = parse(&[
            "--nf=nat",
            "--model=xchange",
            "--opt=full",
            "--freq=3.0",
            "--cores=2",
            "--nics=2",
            "--offered=80",
            "--packets=4k",
            "--size=64",
            "--pcap=a.pcap",
            "--seed=0x10",
            "--show-log",
            "--handlers",
        ])
        .expect("valid flags");
        assert_eq!(spaced, inline);
        assert_eq!((inline.cores, inline.seed), (2, 16));
    }

    #[test]
    fn empty_or_unexpected_inline_values_are_errors() {
        for (bad, error) in [
            (&["--cores="][..], "--cores requires a value"),
            (&["--pcap="], "--pcap requires a value"),
            (&["--nf="], "--nf requires a value"),
            (&["--show-log=1"], "--show-log takes no value"),
            (&["--handlers="], "--handlers takes no value"),
        ] {
            assert_eq!(parse(bad).err().as_deref(), Some(error), "{bad:?}");
        }
    }

    #[test]
    fn bad_integer_flags_are_errors() {
        for bad in [
            ["--cores", "0"],
            ["--nics", "0"],
            ["--packets", "1.5"],
            ["--seed", "-1"],
            ["--size", "1e3"],
        ] {
            assert!(parse(&bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn out_of_range_numbers_are_errors() {
        for flag in ["--offered", "--freq"] {
            for bad in ["0", "-5", "inf", "nan"] {
                let error = format!("{flag} must be finite and above 0, got {bad:?}");
                assert_eq!(parse(&[flag, bad]), Err(error));
            }
        }
        assert_eq!(
            parse(&["--freq", "fast"]),
            Err("not a number: \"fast\"".to_string())
        );
        for bad in ["10", "63", "1501", "100000"] {
            let error = format!("--size must be in 64..=1500 bytes, got {bad}");
            assert_eq!(parse(&["--size", bad]), Err(error));
        }
        let o = parse(&["--offered", "0.5", "--freq", "1e-3", "--size", "1500"]).expect("in range");
        assert_eq!((o.offered, o.freq, o.size), (0.5, 1e-3, Some(1500)));
        assert_eq!(parse(&["--size", "64"]).map(|o| o.size), Ok(Some(64)));
    }
}
