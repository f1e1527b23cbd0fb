//! Host footprint: the heap a run needs does not grow with its queue
//! count, a packet pool nobody allocates from holds no free list, a
//! trace holds headers, not payload, a flow table holds
//! packed bytes in zeroed pages, and a timeline's latency histograms
//! hold only the buckets they counted. The DMA pool is geometry only and
//! packet bytes live once, in the cached trace, as each frame's headers
//! plus a fill run, so a multi-core run holds no per-queue byte image
//! and no frame's constant payload.
//!
//! A binary of its own because it installs a counting global allocator,
//! which counts whatever else the binary runs.

use packetmill::{ExperimentBuilder, MetadataModel, Nf, OptLevel, Trace, TraceConfig};
use pm_click::{default_packet_layout, Args, ClickPool, Element};
use pm_elements::configs::buckets_for;
use pm_elements::nat::IpRewriter;
use pm_mem::AddressSpace;
use pm_sim::SplitMix64;
use pm_telemetry::TimelineRecorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// [`System`], keeping a running total of live bytes and its high-water
/// mark (statistics only: they publish no other data).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Bytes ever requested through `alloc_zeroed`.
static ZEROED: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// implements `GlobalAlloc` soundly; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
            ZEROED.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract, and `ptr` came
        // from `System` with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// An 8-core run's peak live heap, the cached trace included, stays
/// far below what one pool image per queue cost on its own (11.4 MB
/// each, about 100 MiB for the whole run). X-Change takes no packet
/// object, so no queue's runtime builds a free list either (640 KiB
/// each before). Measured 6.2 MiB (11.2 MiB with eager free lists); the
/// bound is that plus 50 %.
#[test]
fn eight_core_run_holds_no_per_queue_byte_image() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let run = || {
        ExperimentBuilder::new(Nf::Router)
            .metadata_model(MetadataModel::XChange)
            .optimization(OptLevel::AllSource)
            .cores(8)
            .packets(4_000)
            .run()
            .expect("run")
    };
    run(); // synthesizes and caches the trace
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    run();
    let peak_mib = PEAK.load(Relaxed) as f64 / f64::from(1 << 20);
    assert!(peak_mib < 9.3, "peak live heap {peak_mib:.1} MiB");
}

/// A packet pool builds its free list on first use: a runtime-sized
/// pool (131 072 objects) that never allocates, as under X-Change,
/// Overlaying or scalar replacement, holds at most 1 KiB of live heap,
/// where the eager pool held a 512 KiB shuffled free list and 128 KiB
/// of free flags.
#[test]
fn unused_packet_pool_holds_no_heap() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut space = AddressSpace::new();
    let layout = default_packet_layout();
    let before = LIVE.load(Relaxed);
    let pool = ClickPool::new(&mut space, 1 << 17, &layout);
    let held = LIVE.load(Relaxed).saturating_sub(before);
    assert_eq!(pool.available(), 1 << 17);
    assert!(held <= 1024, "{held} B of live heap in an unused pool");
    drop(pool);
}

/// A trace holds each frame's headers and a fill run, not its ≈ 1 KB
/// of constant payload: a campus trace (mean frame ≈ 981 B) grows the
/// live heap by at most 96 B per frame.
#[test]
fn trace_holds_headers_not_payload() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let frames = 16_384;
    let before = LIVE.load(Relaxed);
    let trace = Trace::synthesize(&TraceConfig {
        packets: frames,
        ..TraceConfig::default()
    });
    let per_frame = LIVE.load(Relaxed).saturating_sub(before) / frames;
    assert!(trace.mean_frame_len() > 900.0);
    assert!(per_frame <= 96, "{per_frame} B of live heap per frame");
}

/// The NAT flow table sized for a million flows (`Nf::NatScale`'s
/// `buckets_for(1_000_000)`, 2^19 buckets) holds at most 96 B of live
/// heap per bucket — 93 B packed, where the `Option`-slot table before
/// it held 160 B — and asks for all of it through `alloc_zeroed`, so
/// buckets no flow touches stay unmapped zero pages.
#[test]
fn million_flow_nat_table_is_packed_and_zeroed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let buckets = buckets_for(1_000_000) as usize;
    let (live, zeroed) = (LIVE.load(Relaxed), ZEROED.load(Relaxed));
    let mut nat = IpRewriter::default();
    nat.configure(&Args::parse(&format!("BUCKETS {buckets}")))
        .expect("a valid IPRewriter configuration");
    nat.setup(&mut AddressSpace::new());
    let per_bucket = LIVE.load(Relaxed).saturating_sub(live) / buckets;
    let zeroed = ZEROED.load(Relaxed) - zeroed;
    assert!(per_bucket <= 96, "{per_bucket} B of live heap per bucket");
    assert!(
        zeroed >= buckets * 93,
        "{zeroed} B through alloc_zeroed for {buckets} buckets"
    );
    drop(nat);
}

/// A timeline keeps one latency histogram per (window, lane), and each
/// holds only the span of buckets its window counted. 64 departures per
/// window with latencies of 10 µs–1 ms land within 430 of the 3 776
/// buckets `u64` needs, so 8 lanes × 200 windows hold at most 4 KiB of
/// live heap per (window, lane), the whole recorder with every series
/// included, where a dense histogram alone took 30 208 B. Measured
/// 2 948 B; the bound is that plus ≈ 40 %.
#[test]
fn timeline_histograms_hold_their_span() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (lanes, windows, departures) = (8, 200, 64);
    let window_ps = 100_000_000;
    let before = LIVE.load(Relaxed);
    let mut rec = TimelineRecorder::new(window_ps, lanes, vec!["rx_ring"]);
    let mut rng = SplitMix64::new(39);
    for w in 0..windows {
        for lane in 0..lanes {
            for d in 0..departures {
                let at_ps = w * window_ps + d * (window_ps / departures);
                let latency_ns = 10_000 + rng.next_u64() % 990_001;
                rec.on_tx(lane, at_ps, 1_000, latency_ns);
            }
        }
    }
    let per_window = LIVE.load(Relaxed).saturating_sub(before) / (lanes * windows as usize);
    assert!(
        per_window <= 4096,
        "{per_window} B of live heap per (window, lane)"
    );
    drop(rec);
}
