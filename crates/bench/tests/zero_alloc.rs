//! Allocation-regression tests for the zero-copy page pipeline.
//!
//! These tests pin the heap behaviour of the hot paths with the counting
//! global allocator: once the device, its pools and the telemetry registry
//! are warm, cache-hit reads, steady-state drained writes and metric
//! recording must not allocate at all. The simulation is single-threaded
//! and fully deterministic, so an exact-zero assertion is stable — any new
//! per-op allocation on these paths fails the suite instead of silently
//! regressing `BENCH_perf.json`.
//!
//! Two subtleties make the assertions meaningful:
//!
//! 1. The allocation counter is process-wide, so all scenarios run inside
//!    one `#[test]` (the default harness runs tests concurrently, which
//!    would cross-pollute the counts).
//!
//! 2. "Steady state" means the NAND frontier has *wrapped*: erases feed
//!    freed pages back into the page pool and GC recycles blocks. On a
//!    cold multi-gigabyte device the frontier never wraps in a few tens of
//!    thousands of ops, so every program legitimately grows capacity (a
//!    fresh page per write is growth, not churn). We therefore measure on
//!    `SsdConfig::tiny_test()` (8 MB raw) whose frontier wraps within the
//!    warm-up, exercising cache drain, FTL program, GC and mapping persist
//!    with every pool at its high-water mark.

use durassd::{Ssd, SsdConfig};
use simkit::alloc::{alloc_count, CountingAlloc};
use simkit::dist::{rng, Rng};
use storage::volume::Volume;
use telemetry::{Rec, Scope, Telemetry};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Count allocations across `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let a0 = alloc_count();
    f();
    alloc_count() - a0
}

/// A tiny-geometry volume driven past its first frontier wrap: after
/// `warmup_ops` random writes (fsync every 32) every pool — page slab,
/// preimage vecs, ack heap, NAND page slab, FTL scratch — has reached its
/// steady-state capacity.
///
/// Pools grow exactly when a new all-time peak of in-flight work appears,
/// so the warm-up ends with a long fsync-free burst: 4096 back-to-back
/// writes stack up far more concurrent cache slots, drain refs and atomic
/// pre-images than the measured workload (fsync every 32) can ever reach,
/// pinning every high-water mark above the measurement window.
fn warm_volume(seed: u64, warmup_ops: u64) -> (Volume<Ssd>, u64, u64) {
    let mut dev = Ssd::new(SsdConfig::tiny_test());
    // Media-side peaks (live NAND pages, in-flight erases) are geometric,
    // not workload-driven; prewarm pins them up front (8 MB raw here).
    dev.prewarm();
    let mut vol = Volume::new(dev, true);
    let span = vol.capacity_pages() * 3 / 4;
    let data = vec![3u8; 4096];
    let mut r = rng(seed);
    let mut t = 0;
    for i in 0..warmup_ops {
        let lpn = r.gen_range(0..span);
        t = vol.write(lpn, &data, t).unwrap();
        if i % 32 == 31 {
            t = vol.fsync(t).unwrap();
        }
    }
    // High-water-mark burst: no barriers, maximal in-flight window.
    for _ in 0..4096u64 {
        let lpn = r.gen_range(0..span);
        t = vol.write(lpn, &data, t).unwrap();
    }
    t = vol.fsync(t).unwrap();
    // Settle back into the barriered rhythm the measurements use.
    for i in 0..512u64 {
        let lpn = r.gen_range(0..span);
        t = vol.write(lpn, &data, t).unwrap();
        if i % 32 == 31 {
            t = vol.fsync(t).unwrap();
        }
    }
    (vol, span, t)
}

fn steady_state_drained_writes() {
    let (mut vol, span, mut t) = warm_volume(0x5EED, 10_000);
    let mut r = rng(0xD81A);
    let data = vec![3u8; 4096];
    let allocs = allocs_during(|| {
        for i in 0..2_000u64 {
            let lpn = r.gen_range(0..span);
            t = vol.write(lpn, &data, t).unwrap();
            if i % 32 == 31 {
                t = vol.fsync(t).unwrap();
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state cached writes + fsync (cache drain, FTL program, GC, \
         mapping persist) must be allocation-free"
    );
}

fn cache_hit_reads() {
    let (mut vol, _span, mut t) = warm_volume(0xCAFE, 10_000);
    let data = vec![7u8; 4096];
    let mut buf = vec![0u8; 4096];
    // A working set smaller than the 16-slot DRAM cache: these writes stay
    // resident, so subsequent reads are pure cache hits.
    for lpn in 0..8u64 {
        t = vol.write(lpn, &data, t).unwrap();
    }
    // Warm the read path (queue/scratch capacities).
    for lpn in 0..8u64 {
        t = vol.read(lpn, 1, &mut buf, t).unwrap();
    }
    let allocs = allocs_during(|| {
        for _ in 0..400 {
            for lpn in 0..8u64 {
                t = vol.read(lpn, 1, &mut buf, t).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "steady-state cache-hit reads must be allocation-free");
    assert_eq!(buf, data, "reads still serve the cached bytes");
}

fn telemetry_recording() {
    let tel = Telemetry::new();
    // First samples intern the names.
    tel.record("op.latency", 10);
    tel.incr("op.count", 1);
    tel.set_gauge("op.gauge", 5);
    let allocs = allocs_during(|| {
        for i in 0..1_000u64 {
            tel.record("op.latency", i);
            tel.incr("op.count", 1);
            tel.set_gauge("op.gauge", i as i64);
        }
    });
    assert_eq!(allocs, 0, "metric recording must not allocate for known names");
}

fn disabled_tracing() {
    let tel = Telemetry::new();
    let on = Some(&tel);
    // First samples intern the histogram names.
    Scope::open(on, "dev", "dev.op", 0, Rec::Command).close(1);
    Scope::open(on, "engine", "engine.op", 0, Rec::Op).close(1);
    // Tracing and anatomy never enabled: every scope must early-out of the
    // span and frame work without touching the heap (no interning, no ring
    // work, no frame names).
    let allocs = allocs_during(|| {
        for i in 0..1_000u64 {
            let op = Scope::open(on, "engine", "engine.op", i, Rec::Op);
            let cmd = Scope::open(on, "dev", "dev.op", i, Rec::Command);
            let span = Scope::open(on, "nand", "nand.program", i, Rec::Span);
            tel.trace_instant("dev", "tick", i);
            span.close(i + 1);
            cmd.close(i + 1);
            Scope::open(on, "wal", "wal.group_flush", i, Rec::Detached).close(i + 1);
            Scope::open(on, "dev", "dev.op", i, Rec::Command).abort(i);
            op.close(i + 2);
        }
    });
    assert_eq!(allocs, 0, "disabled tracing must be free");
    assert!(!tel.tracing_enabled());
}

#[test]
fn hot_paths_are_allocation_free() {
    telemetry_recording();
    disabled_tracing();
    steady_state_drained_writes();
    cache_hit_reads();
}
