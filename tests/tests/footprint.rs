//! Host footprint: the heap a run needs does not grow with its queue
//! count, and a trace holds headers, not payload. The DMA pool is
//! geometry only and packet bytes live once, in the cached trace, as
//! each frame's headers plus a fill run, so a multi-core run holds no
//! per-queue byte image and no frame's constant payload.
//!
//! A binary of its own because it installs a counting global allocator,
//! which counts whatever else the binary runs.

use packetmill::{ExperimentBuilder, MetadataModel, Nf, OptLevel, Trace, TraceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// [`System`], keeping a running total of live bytes and its high-water
/// mark (statistics only: they publish no other data).
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

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
/// each, about 100 MiB for the whole run). Measured 11.2 MiB; the bound
/// is that plus 50 %.
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
    assert!(peak_mib < 16.8, "peak live heap {peak_mib:.1} MiB");
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
