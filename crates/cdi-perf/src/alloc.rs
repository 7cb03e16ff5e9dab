//! Counting allocator: a pass-through to [`System`] that counts the
//! allocations and allocated bytes of a thread while that thread has a
//! traced span open.
//!
//! It lives only in this crate, so no other binary of the workspace pays
//! for it. Counting is gated by one relaxed atomic — the number of open
//! root spans in the process, zero for the whole untraced run — and then
//! by a thread-local flag, so a span counts what its own thread allocates
//! and not what shard workers do beside it; that keeps the counts of
//! single-threaded spans exact. The atomic publishes no data, it only
//! decides whether thread-local statistics move, so `Relaxed` is enough.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static OPEN_ROOTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without destructors: reading them from inside
    // the allocator neither allocates nor runs during thread teardown.
    static TRACING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The process-wide allocator of every `cdi-perf` binary and test.
#[derive(Debug)]
pub struct CountingAlloc;

fn note(size: usize) {
    if OPEN_ROOTS.load(Ordering::Relaxed) > 0 && TRACING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is a relaxed
// load and thread-local counter bumps that neither allocate nor touch the
// returned memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// This thread opened a root span: count its allocations until the
/// matching [`leave`].
pub fn enter() {
    OPEN_ROOTS.fetch_add(1, Ordering::Relaxed);
    TRACING.with(|t| t.set(true));
}

/// The root span opened by the matching [`enter`] closed.
pub fn leave() {
    TRACING.with(|t| t.set(false));
    OPEN_ROOTS.fetch_sub(1, Ordering::Relaxed);
}

/// `(allocations, bytes)` this thread has counted so far.
pub fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}
