//! # revtr-alloccount — the workspace's one counting allocator
//!
//! The allocation gates (`crates/*/tests/alloc_gate.rs`) each install
//! [`Counting`] as their test binary's global allocator:
//!
//! ```
//! #[global_allocator]
//! static GLOBAL: revtr_alloccount::Counting = revtr_alloccount::Counting;
//!
//! let (boxed, n) = revtr_alloccount::allocs_in(|| Box::new(7u64));
//! assert_eq!((*boxed, n), (7, 1));
//! ```
//!
//! and read it through four helpers:
//!
//! * [`allocs_in`] — the allocations this thread makes in a closure. A
//!   gate whose work stays on the calling thread uses it, and the
//!   harness's other threads cannot leak in.
//! * [`process_allocs_in`] — the allocations every thread makes in a
//!   closure. A gate whose work runs helpers off the calling thread (a
//!   campaign's or a survey's pool) uses it, and runs everything inside
//!   one `#[test]` so no other test counts with it.
//! * [`bytes_in`] — the bytes this thread allocates in a closure, freed or
//!   not.
//! * [`live_after`] — the heap bytes this thread holds more after a
//!   closure than before it.
//!
//! An allocation is an `alloc` or a `realloc` call; `dealloc` counts none.
//! The bytes an allocation counts are its size: a `realloc`'s new size.
//! The crate holds the workspace crates' only `unsafe` code: every other
//! library crate forbids it.

#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: touching them never
    // allocates and stays valid while the thread is torn down.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The counting allocator: [`System`], plus an allocation count for the
/// process and for this thread, and this thread's allocated and live
/// bytes.
pub struct Counting;

/// Count `allocs` allocations of `size` bytes in all, changing the live
/// bytes by `live`.
fn count(allocs: u64, size: usize, live: i64) {
    PROCESS_ALLOCS.fetch_add(allocs, Ordering::Relaxed);
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting is one atomic add and three
// destructor-free thread-local cells, so it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size(), layout.size() as i64);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`, above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What `f` returns, and the allocations this thread makes while running it.
pub fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// What `f` returns, and the allocations every thread makes while it runs.
pub fn process_allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = PROCESS_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, PROCESS_ALLOCS.load(Ordering::Relaxed) - before)
}

/// What `f` returns, and the bytes this thread allocates while running it.
pub fn bytes_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// What `f` returns, and the heap bytes this thread holds more after it.
pub fn live_after<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    // The unit tests run on threads of their own, so the process count may
    // take in a neighbour's allocations: it is held to a lower bound, the
    // per-thread counts to exact values.

    #[test]
    fn a_box_counts_one_allocation_on_this_thread_and_in_the_process() {
        let ((), mine) = allocs_in(|| {
            let ((), all) = process_allocs_in(|| drop(black_box(Box::new(7u64))));
            assert!(all >= 1, "the process counted {all}");
        });
        assert_eq!(mine, 1);
    }

    #[test]
    fn a_vec_growth_by_realloc_counts_one() {
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend([1, 2, 3, 4]);
        let ((), n) = allocs_in(|| black_box(&mut v).push(5));
        assert_eq!(n, 1, "one realloc");
        assert!(v.capacity() > 4);
    }

    #[test]
    fn a_spawned_thread_counts_in_the_process_but_not_on_the_caller() {
        let ((), mine) = allocs_in(|| {
            let ((), all) = process_allocs_in(|| {
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let ((), theirs) = allocs_in(|| {
                            for k in 0..100u64 {
                                drop(black_box(Box::new(k)));
                            }
                        });
                        assert_eq!(theirs, 100);
                    });
                })
            });
            assert!(all >= 100, "the process counted {all}");
        });
        // The spawn itself allocates on the caller (its handle and
        // closure), but none of the hundred boxes lands here.
        assert!(mine < 100, "the caller counted {mine}");
    }

    #[test]
    fn allocated_bytes_count_every_size_freed_or_not() {
        let ((), bytes) = bytes_in(|| {
            let mut v: Vec<u8> = Vec::with_capacity(100);
            black_box(&mut v).reserve_exact(200);
            drop(black_box(v));
        });
        assert_eq!(bytes, 100 + 200);
    }

    #[test]
    fn live_bytes_return_to_zero_after_a_drop() {
        let (v, live) = live_after(|| black_box(vec![0u8; 4096]));
        assert_eq!(live, 4096);
        let ((), after) = live_after(|| drop(v));
        assert_eq!(after, -4096);
        let ((), net) = live_after(|| drop(black_box(vec![1u32; 100])));
        assert_eq!(net, 0);
    }
}
