//! Benchmark-only counting allocator.
//!
//! Wraps the system allocator and counts calls and requested bytes so the
//! benchmark can report `allocs_per_op` and `alloc_kb_per_op`. Counters are
//! kept per thread slot on their own cache lines: the pool workloads
//! allocate from several threads at once, and one shared counter would put
//! a contended cache line into the very path being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter slots. The engine's pool spawns fresh scoped threads per wave,
/// so slots are handed out round-robin; threads alive at the same time
/// have consecutive ids and therefore distinct slots.
const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Slot = Slot {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTS: [Slot; SLOTS] = [EMPTY; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and stays valid while the thread is torn down.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note(size: usize) {
    let idx = MY_SLOT
        .try_with(|c| {
            if c.get() == usize::MAX {
                c.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            c.get()
        })
        .unwrap_or(0);
    // Relaxed: these are statistics and publish no other data.
    COUNTS[idx].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[idx].bytes.fetch_add(size as u64, Ordering::Relaxed);
}

/// The allocator installed by `main.rs`.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` only touches atomics and a
// destructor-free thread-local, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and requested bytes since process start, summed over
/// every thread that ever allocated. A `realloc` counts as one call of its
/// new size.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), s| {
        (
            a + s.allocs.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}
