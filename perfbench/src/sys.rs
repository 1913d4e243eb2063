//! Live heap accounting and open-loop pacing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Heap bytes the process holds live, counted at every allocation and
/// free. Unlike the resident set size, freed memory the allocator keeps
/// for reuse does not count, so the figure repeats from run to run.
pub fn live_heap_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

static LIVE: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting live bytes in [`LIVE`].
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic that
// publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        p
    }
}

/// A sleeping thread can wake milliseconds late on a shared host, so the
/// last stretch before an arrival is spun instead.
const SPIN_MARGIN: Duration = Duration::from_micros(500);

/// Waits until `at_ns` after `t0`. Returns how late the generator woke,
/// in nanoseconds, or `None` when the arrival was already due on entry
/// (the previous request ran past it: queueing, not generator lateness).
/// Sleeps through long gaps and spins only the last [`SPIN_MARGIN`], so
/// the generator does not hold a core.
pub fn wait_until(t0: Instant, at_ns: u64) -> Option<u64> {
    let at = Duration::from_nanos(at_ns);
    if t0.elapsed() >= at {
        return None;
    }
    loop {
        let now = t0.elapsed();
        if now >= at {
            return Some((now - at).as_nanos() as u64);
        }
        let left = at - now;
        if left > SPIN_MARGIN {
            std::thread::sleep(left - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
