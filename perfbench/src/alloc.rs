//! A counting global allocator: wraps [`System`] and keeps the live and
//! peak heap byte counts, so `peak_heap_mb` is measured without touching
//! the program under test. Each thread also keeps its own count, so the
//! peak of one call can be measured while another thread runs beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The benchmark binary's global allocator.
pub struct Counting;

// Statistics only: the counters publish no other data, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Bytes this thread allocated minus bytes it freed (negative when it
    // frees what another thread allocated), and the highest value since
    // `thread_mark`. Const-initialised without destructors, so reaching
    // them never allocates.
    static THREAD_LIVE: Cell<isize> = const { Cell::new(0) };
    static THREAD_PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    let _ = THREAD_LIVE.try_with(|l| {
        let live = l.get() + bytes as isize;
        l.set(live);
        let _ = THREAD_PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
    let _ = THREAD_LIVE.try_with(|l| l.set(l.get() - bytes as isize));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and that `new_size` is valid.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The peak live heap since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / f64::from(1u32 << 20)
}

/// The live heap now, in bytes.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the calling thread's peak tracking; returns the mark to pass
/// to [`thread_peak_since`].
pub fn thread_mark() -> isize {
    let live = THREAD_LIVE.with(Cell::get);
    THREAD_PEAK.with(|p| p.set(live));
    live
}

/// The most the calling thread's own live heap rose above `mark` since
/// [`thread_mark`] returned it, in bytes.
pub fn thread_peak_since(mark: isize) -> usize {
    THREAD_PEAK.with(Cell::get).saturating_sub(mark).max(0) as usize
}
