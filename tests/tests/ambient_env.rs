//! What a run simulates comes from its builder and from the
//! `set_default_*` values the CLI flags install — never from the
//! process environment. Earlier versions read a `PM_<OPTION>` variable
//! behind every default, inside the library, so an ambient variable
//! changed what tests and reference runs simulated, and an unparsable
//! one panicked every run in the process.
//!
//! Alone in its test binary on purpose: it sets process-wide variables
//! and reads the process-wide defaults, which other batteries set.

use packetmill::{sweep, ExperimentBuilder, Nf};

#[test]
fn ambient_variables_do_not_reach_a_builder() {
    for (option, value) in [
        ("FAULTS", "not-a-spec"),
        ("WORKLOAD", "not-a-spec"),
        ("PROFILE", "1"),
        ("TIMELINE", "1"),
        ("TRACE", "ambient-trace.json"),
        ("THREADS", "3"),
    ] {
        std::env::set_var(format!("PM_{option}"), value);
    }
    let b = ExperimentBuilder::new(Nf::Forwarder);
    assert!(b.fault_plan_effective().is_none());
    assert!(b.workload_effective().is_none());
    assert!(!b.profile_effective());
    assert!(b.timeline_us_effective().is_none());
    assert!(!b.packet_trace_effective());
    let all_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(sweep::default_threads(), all_cores);
}
