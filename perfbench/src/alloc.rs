//! A counting global allocator: every `alloc`, `alloc_zeroed` and
//! `realloc` call bumps a process-wide counter and the calling thread's
//! counter, then forwards to the system allocator. Frees are not counted.
//!
//! The per-thread counter is what lets the benchmark split allocations
//! between the thread that drives a workload (the client) and the rest of
//! the process (the in-process server, figure workers).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it inside the
    // allocator never allocates or registers anything.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// The benchmark binary's `#[global_allocator]`.
pub struct Counting;

fn record() {
    // A statistic that publishes no other data: relaxed is enough.
    TOTAL.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread's locals are being torn
    // down; an allocation then goes uncounted on the thread side.
    let _ = THREAD.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only an atomic
// and a const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls made by every thread of the process so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocation calls made by the calling thread so far.
pub fn this_thread() -> u64 {
    THREAD.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_each_allocation_call_on_the_calling_thread() {
        let before = this_thread();
        let v: Vec<u64> = black_box(Vec::with_capacity(16));
        let b = black_box(Box::new(7u32));
        assert_eq!(this_thread() - before, 2);
        drop((v, b));
        assert_eq!(this_thread() - before, 2, "frees are not counted");

        let mut grow: Vec<u8> = black_box(Vec::with_capacity(1));
        grow.extend_from_slice(&[0; 64]);
        assert_eq!(this_thread() - before, 4, "a realloc counts once");

        let empty: Vec<u64> = black_box(Vec::new());
        assert_eq!(this_thread() - before, 4, "an empty Vec does not allocate");
        drop((grow, empty));
    }

    #[test]
    fn other_threads_count_in_the_total_not_here() {
        let total_before = total();
        let (inner, here_during) = std::thread::scope(|s| {
            let worker = s.spawn(|| {
                let before = this_thread();
                let boxes: Vec<Box<u64>> = (0..3).map(|i| black_box(Box::new(i))).collect();
                drop(boxes);
                // Three boxes plus the Vec holding them.
                this_thread() - before
            });
            let here = this_thread();
            let inner = worker.join().expect("counting thread panicked");
            (inner, this_thread() - here)
        });
        assert_eq!(inner, 4);
        assert_eq!(here_during, 0, "joining allocates nothing on this thread");
        assert!(total() - total_before >= 4);
    }
}
