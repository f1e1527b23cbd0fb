//! Criterion benchmarks for the simulator fast path: memory-hierarchy
//! accesses per second (hit-heavy, miss-heavy, and range-batched),
//! access-program resolution (the tight walk vs the per-call reference
//! walk), and event-queue throughput (calendar queue vs. the binary-heap
//! reference). `DESIGN.md` § "Simulator performance" explains the
//! structures under test.
//!
//! Honest-result notes (shared, throttling-prone host — ratios are the
//! claim, absolute rates are weather):
//! * The `programs/*_walk` vs `*_reference` pairs run the *same* program
//!   against the same bases. Both touch every line; the gap is the
//!   resident filter, one attribution window per call (per batch for
//!   `wqe_batch32`) and loop structure — 1.5–2.4× here. A multiple on
//!   these fixed-base loops says little about a real packet mix;
//!   end-to-end claims go through `pm-benchmark` (DESIGN.md §10).
//! * The event-queue pairs show the binary heap ~2× *ahead* of the
//!   calendar queue at simulator populations (16–256 standing events);
//!   the engine uses neither (DESIGN.md §10).

use criterion::{criterion_group, criterion_main, Criterion};
use pm_mem::{AccessKind, Cost, HierarchyParams, MemoryHierarchy, ProgramBuilder};
use pm_sim::{EventQueue, HeapEventQueue, SimTime, SplitMix64};
use std::hint::black_box;

fn bench_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy");

    // Hit-heavy: a 16-line working set, revisited round-robin — after
    // warm-up every access is an L1 hit, most in the MRU slot.
    g.bench_function("access_hit_heavy", |b| {
        let mut mem = MemoryHierarchy::skylake(1);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) & 15;
            black_box(mem.access(0, 0x10000 + i * 64, 8, AccessKind::Load))
        });
    });

    // Miss-heavy: pseudorandom lines across 256 MiB — far past the LLC,
    // so most accesses walk all three levels and charge DRAM.
    g.bench_function("access_miss_heavy", |b| {
        let mut mem = MemoryHierarchy::skylake(1);
        let mut rng = SplitMix64::new(0xBEEF);
        b.iter(|| {
            let addr = rng.next_u64() & (256 * 1024 * 1024 - 1);
            black_box(mem.access(0, addr, 8, AccessKind::Load))
        });
    });

    // Range-batched: one MTU-sized span charged through `access_range`,
    // the bulk-touch API the PMD and runtime use for payload copies.
    g.bench_function("access_range_1472B", |b| {
        let mut mem = MemoryHierarchy::skylake(1);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) & 63;
            black_box(mem.access_range(0, 0x200000 + i * 2048, 1472, AccessKind::Store))
        });
    });

    // The same span charged line-by-line — what the batched API replaced.
    g.bench_function("access_per_line_1472B", |b| {
        let mut mem = MemoryHierarchy::skylake(1);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) & 63;
            let base = 0x200000 + i * 2048;
            let mut cost = pm_mem::Cost::default();
            for l in 0..23u64 {
                cost += mem.access(0, base + l * 64, 64, AccessKind::Store);
            }
            black_box(cost)
        });
    });

    g.finish();
}

/// Access-program resolution at representative charge-set sizes: the
/// default tight walk vs the lock-step reference walk
/// (`with_reference_walk`), identical outcomes by contract.
fn bench_programs(c: &mut Criterion) {
    let mut g = c.benchmark_group("programs");

    // Dispatch-shaped: prefetch + vtable load + compute + state load
    // (2 demand lines, 2 bases) — the hottest shape.
    let dispatch = || {
        ProgramBuilder::new()
            .prefetch(0, 0, 64)
            .load(0, 0, 32)
            .compute(18)
            .load(1, 0, 8)
            .build()
    };
    // Metadata-commit-shaped: 6 demand lines on one base.
    let metadata = || {
        ProgramBuilder::new()
            .load(0, 0, 8)
            .store(0, 64, 8)
            .store(0, 128, 8)
            .load(0, 192, 16)
            .store(0, 256, 8)
            .load(0, 320, 8)
            .compute(12)
            .build()
    };
    // Payload-shaped: one MTU store span (23 lines).
    let payload = || ProgramBuilder::new().store(0, 0, 1472).build();

    let fast = || MemoryHierarchy::skylake(1);
    let reference = || MemoryHierarchy::with_reference_walk(&HierarchyParams::skylake(1));

    type MakeProgram = fn() -> pm_mem::AccessProgram;
    let modes = [
        ("walk", fast as fn() -> MemoryHierarchy),
        ("reference", reference as fn() -> MemoryHierarchy),
    ];
    let shapes: [(&str, MakeProgram); 3] = [
        ("dispatch2", dispatch as fn() -> _),
        ("metadata6", metadata as fn() -> _),
        ("payload23", payload as fn() -> _),
    ];
    for (name, make) in shapes {
        for (tag, mk_mem) in modes {
            g.bench_function(&format!("{name}_{tag}"), |b| {
                let mut mem = mk_mem();
                let prog = make();
                let bases = [0x10_000u64, 0x12_000];
                b.iter(|| {
                    let mut cost = Cost::ZERO;
                    mem.run_program(0, &prog, &bases, &mut cost);
                    black_box(cost)
                });
            });
        }
    }

    // The PMD's burst shape: one `run_program_batch` call resolving 32
    // strided 16-byte WQE rows under a single attribution window.
    for (tag, mk_mem) in modes {
        g.bench_function(&format!("wqe_batch32_{tag}"), |b| {
            let mut mem = mk_mem();
            let prog = ProgramBuilder::new().store(0, 0, 16).compute(4).build();
            let rows: Vec<[u64; 1]> = (0..32u64).map(|k| [0x48_000 + k * 16]).collect();
            b.iter(|| {
                let mut cost = Cost::ZERO;
                mem.run_program_batch(0, &prog, &rows, &mut cost);
                black_box(cost)
            });
        });
    }

    g.finish();
}

/// The engine's event pattern, as a classic hold model: a standing
/// population of in-flight events whose timestamps advance in
/// pacing-scale steps (a 64-B frame at 100 Gbps arrives every ~6.7 ns).
/// Each op pops the earliest event and schedules its successor a few
/// nanoseconds later.
fn pump_calendar(n: u64, population: u64, seed: u64) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SplitMix64::new(seed);
    for i in 0..population {
        q.schedule(
            SimTime::from_ns((rng.next_u64() % (population * 8)) as f64),
            i,
        );
    }
    let mut acc = 0u64;
    for i in 0..n {
        let (t, e) = q.pop().expect("standing population");
        acc = acc.wrapping_add(e);
        q.schedule(t + SimTime::from_ns(1.0 + (rng.next_u64() % 16) as f64), i);
    }
    acc
}

/// The identical workload against the binary-heap reference queue.
fn pump_heap(n: u64, population: u64, seed: u64) -> u64 {
    let mut q: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut rng = SplitMix64::new(seed);
    for i in 0..population {
        q.schedule(
            SimTime::from_ns((rng.next_u64() % (population * 8)) as f64),
            i,
        );
    }
    let mut acc = 0u64;
    for i in 0..n {
        let (t, e) = q.pop().expect("standing population");
        acc = acc.wrapping_add(e);
        q.schedule(t + SimTime::from_ns(1.0 + (rng.next_u64() % 16) as f64), i);
    }
    acc
}

fn bench_events(c: &mut Criterion) {
    let mut g = c.benchmark_group("events");
    for population in [16u64, 256] {
        g.bench_function(&format!("calendar_queue_pop{population}"), |b| {
            b.iter(|| black_box(pump_calendar(4096, population, 0xACE)));
        });
        g.bench_function(&format!("heap_queue_pop{population}"), |b| {
            b.iter(|| black_box(pump_heap(4096, population, 0xACE)));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_hierarchy, bench_programs, bench_events);
criterion_main!(benches);
