//! The workspace's one counting global allocator.
//!
//! A binary or test crate installs [`CountingAlloc`] as its
//! `#[global_allocator]` and reads the counters around the region it cares
//! about: [`allocations`] for how often a path hits the heap (the hot-path
//! allocation budgets, the tap-path clone checks), [`live_bytes`] /
//! [`peak_bytes`] for a heap-footprint proxy (`repro -- users`). In a
//! process that keeps the system allocator they stay at zero.
//!
//! The counters are per process, not per thread: a test that asserts on
//! them must be the only test in its file (cargo runs one file's tests on
//! parallel threads).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Wraps [`System`], counting allocator calls and live / peak heap bytes
/// (relaxed atomics: statistics that publish no other data).
pub struct CountingAlloc;

fn on_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_dealloc(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only ever hands out `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` obligations.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Allocator calls that returned memory (`alloc`, `alloc_zeroed`,
/// `realloc`) since process start.
pub fn allocations() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Heap bytes currently allocated.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Resets the peak watermark to the current live footprint, so the next
/// [`peak_bytes`] reading covers only growth after this call.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
