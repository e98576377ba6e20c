//! A counting wrapper around the system allocator.
//!
//! The benchmark and the allocation regression tests both need to
//! know how many heap allocations a stretch of code performed. Rust allows
//! exactly one `#[global_allocator]` per binary, so this module only
//! *defines* the wrapper; each binary that wants counting registers it
//! itself:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: simkit::alloc::CountingAlloc = simkit::alloc::CountingAlloc::new();
//! ```
//!
//! Counters are global `AtomicU64`s with relaxed ordering — cheap enough to
//! leave on permanently (one uncontended atomic add per malloc), and exact
//! for the single-threaded simulations this repo runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts every allocation.
///
/// Register with `#[global_allocator]` in binaries that measure allocator
/// traffic; the counter accessors below work (returning zeros) even when it
/// is not registered, so library code can call them unconditionally.
pub struct CountingAlloc;

impl CountingAlloc {
    /// A new wrapper (const so it can be a `static`).
    #[allow(clippy::new_without_default)]
    pub const fn new() -> Self {
        CountingAlloc
    }
}

// SAFETY: defers all allocation to `System`; only adds relaxed counter
// increments, which cannot violate the GlobalAlloc contract.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is morally an alloc (it may move and always costs a
        // trip through the allocator), so count it as one.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total heap allocations since process start (0 if the wrapper is not the
/// registered global allocator).
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total heap deallocations since process start.
pub fn dealloc_count() -> u64 {
    DEALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested from the allocator since process start.
pub fn alloc_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Allocation-count delta across a closure: `(result, allocations)`.
///
/// The measurement brackets exactly the closure body; the closure's return
/// value is produced *inside* the bracket, so returning a heap value counts
/// its allocation (return `()` or a scalar for a pure measurement).
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = alloc_count();
    let out = f();
    (out, alloc_count() - before)
}

/// Peak resident set size of this process in bytes, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 on platforms without procfs.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the wrapper is not registered as the global allocator in the
    // library test binary, so the counters stay at zero here; the real
    // counting behaviour is exercised by the bench crate's `zero_alloc` and
    // `catalogue_determinism` integration tests, which do register it.
    #[test]
    fn counters_are_monotone_and_safe_to_read() {
        let a = alloc_count();
        let d = dealloc_count();
        let b = alloc_bytes();
        let v: Vec<u8> = vec![0u8; 4096];
        drop(v);
        assert!(alloc_count() >= a);
        assert!(dealloc_count() >= d);
        assert!(alloc_bytes() >= b);
    }

    #[test]
    fn count_allocs_brackets_closure() {
        let ((), n) = count_allocs(|| {
            let _ = 1 + 1;
        });
        // Not registered ⇒ no counting; registered ⇒ an empty closure still
        // performs zero allocations. Either way this is 0.
        assert_eq!(n, 0);
    }

    #[test]
    fn rss_reads_without_panicking() {
        // On Linux this is nonzero; elsewhere it degrades to 0.
        let _ = peak_rss_bytes();
    }
}
