//! Every per-session structure is bounded by its `PrefetchConfig` size:
//! a long-lived session, such as one daemon tenant streaming the same
//! workload pass after pass, holds steady memory however many accesses it
//! has run.
//!
//! A counting global allocator tracks the live heap bytes of each thread,
//! so the test harness's own threads do not perturb the count; the
//! allocator is process-wide, so this binary holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stems_core::{Predictor, PrefetchConfig, Session};
use stems_memsim::SystemConfig;
use stems_workloads::Workload;

thread_local! {
    // Const-initialised and without a destructor, so updating it inside
    // the allocator never allocates or registers anything.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` bytes to the calling thread's live count. `try_with`
/// fails only while the thread's locals are torn down, when the change
/// goes uncounted.
fn record(delta: isize) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

/// Live heap bytes allocated, net of frees, by the calling thread.
fn live() -> isize {
    LIVE.with(Cell::get)
}

struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as isize));
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Bytes a session may still gain between its second and eighth pass:
/// none of its structures should grow once the first passes have filled
/// them, and one table growth step anywhere would exceed this.
const SLACK_BYTES: isize = 1024;

/// One DB2 trace replayed eight times through one session per predictor
/// under the small configuration, whose 2 stream queues × lookahead 4
/// never overflow its 8-entry SVB: live heap bytes after pass 8 stay
/// within [`SLACK_BYTES`] of those after pass 2. An SVB that logs every
/// admission until a capacity eviction fails this under TMS and STeMS,
/// whose streams never overflow the buffer (by 48 KiB and 384 KiB).
#[test]
fn long_lived_sessions_hold_steady_memory() {
    let trace = Workload::Db2.generate_scaled(0.01, 2009);
    let sys = SystemConfig::small();
    let cfg = PrefetchConfig::small();
    assert!(cfg.stream_queues * cfg.lookahead <= cfg.svb_entries);
    for predictor in Predictor::all() {
        let mut session = Session::builder(&sys)
            .prefetch(&cfg)
            .predictor(predictor)
            .build();
        let mut after = [0isize; 8];
        for live_after in &mut after {
            session.run_chunk(trace.as_slice());
            *live_after = live();
        }
        let growth = after[7] - after[1];
        assert!(
            growth <= SLACK_BYTES,
            "{predictor}: live heap grew {growth} B from pass 2 to pass 8 \
             ({} accesses a pass; live bytes after each pass: {after:?})",
            trace.len()
        );
    }
}
