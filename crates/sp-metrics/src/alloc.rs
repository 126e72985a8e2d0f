//! Feature-gated allocation accounting (`count-allocs`).
//!
//! Installs a [`#[global_allocator]`](std::alloc::GlobalAlloc) that wraps
//! the system allocator and counts every heap allocation and allocated
//! byte with relaxed atomics. Linking any binary against `sp-metrics` with
//! the `count-allocs` feature activates the counting allocator
//! process-wide; with the feature off this module does not exist and the
//! crate keeps its `forbid(unsafe_code)` guarantee.
//!
//! The counters are process totals. Callers meter a region by differencing
//! [`alloc_counts`] snapshots around it — `tests/integration_scratch.rs`
//! does exactly that across a steady-state slice of the stream to derive
//! its allocs-per-edge and allocs-per-stored-match ceilings. Readings are
//! only meaningful on single-threaded regions or when concurrent activity
//! is accounted for by the caller.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// System-allocator wrapper that counts allocations and allocated bytes.
/// Deallocations are uncounted: the counters measure allocator *pressure*
/// (how often the hot path asks for memory), not live footprint.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter updates have no safety
// obligations.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth realloc is allocator traffic like any other; count the
        // newly requested bytes beyond the old size.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Process-lifetime totals: `(allocations, bytes requested)`. Difference
/// two snapshots to meter a region.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_advance_on_allocation() {
        let (a0, b0) = alloc_counts();
        let v: Vec<u64> = Vec::with_capacity(1024);
        let (a1, b1) = alloc_counts();
        assert!(a1 > a0, "allocation count must advance");
        assert!(b1 - b0 >= 8 * 1024, "byte count must cover the request");
        drop(v);
    }
}
