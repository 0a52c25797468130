//! A counting global allocator: live heap bytes and their peak.
//!
//! `peak_heap_mb` is read from here by a [`PeakSampler`] that covers only
//! the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(by: isize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts a new peak window at the current live size.
fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap since the last [`reset_peak`], in MiB.
fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed).max(0) as f64 / (1024.0 * 1024.0)
}

/// Length of one peak-heap segment.
const SEGMENT: Duration = Duration::from_secs(10);

/// Records the peak live heap of each ten-second segment of a window.
///
/// `peak_heap_mb` is the median of the segment peaks. The single window
/// maximum is not steady: on `mqo-burst` it doubles (963 to 1908 MiB)
/// whenever the two tenants' LRB B2 miss one 2 ms batch window and run as
/// two batches at once, which happens in some runs and not others. Ten
/// seconds is about one `mqo-burst` pass, so most segments hold one B2.
pub struct PeakSampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl PeakSampler {
    pub fn start() -> PeakSampler {
        let stop = Arc::new(AtomicBool::new(false));
        reset_peak();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut peaks = Vec::new();
                let mut segment_start = Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                    if segment_start.elapsed() >= SEGMENT {
                        peaks.push(peak_mb());
                        reset_peak();
                        segment_start = Instant::now();
                    }
                }
                peaks.push(peak_mb());
                peaks
            })
        };
        PeakSampler { stop, thread }
    }

    /// Stops sampling; returns the median and the maximum segment peak.
    pub fn finish(self) -> (f64, f64) {
        self.stop.store(true, Ordering::SeqCst);
        let peaks = self.thread.join().expect("peak sampler panicked");
        let max = peaks.iter().copied().fold(0.0, f64::max);
        (crate::stats::median(&peaks), max)
    }
}
