//! The heap footprint of the design-time set-up — `generate_lts` followed by
//! `LtsIndex::build` — on the healthcare model with potential reads
//! (138,284 states, 1,430,952 transitions), counted by a global allocator.
//!
//! One test in its own file, so no other test's allocations count. It
//! records four figures, each in bytes requested from the allocator:
//!
//! * the live bytes of the `Lts` after generation;
//! * the allocator peak during generation, above the live bytes before it;
//! * the live bytes the `LtsIndex` adds;
//! * the allocator peak during the index build, above the live bytes before
//!   generation (so it includes the `Lts` the build reads).
//!
//! Each is pinned at its measured value plus 10%: measured 29.8, 53.0, 6.5
//! and 37.6 MiB. Before the index kept one transitions-by-label CSR (it
//! held four transition-id posting lists, per-kind field covers and a copy
//! of the states), the index figures read 29.1 and 59.3 MiB. Before the LTS
//! kept the engine's columns (a `Vec<Transition>`, one `Vec` per outgoing
//! list, and an index that copied the CSR and built per-transition label
//! columns on two threads), this test read: `Lts` 65.1 MiB, generation peak
//! 119.2 MiB, index 59.0 MiB, index-build peak 155.3 MiB.

// The counting allocator needs `unsafe impl GlobalAlloc`; it only forwards
// to `System`.
#![allow(unsafe_code)]

use privacy_core::casestudy;
use privacy_lts::{GeneratorConfig, LtsIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Bytes currently allocated, and the most allocated at once since the
/// last [`mark`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting only updates two
// atomics, which never re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The live bytes now; the peak restarts from them.
fn mark() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

const MIB: f64 = 1024.0 * 1024.0;

/// Fails if `bytes` is above `bound_mib`.
fn pinned(what: &str, bytes: usize, bound_mib: f64) -> Option<String> {
    let mib = bytes as f64 / MIB;
    eprintln!("{what}: {mib:.1} MiB (bound {bound_mib:.1} MiB)");
    (mib > bound_mib).then(|| format!("{what} is {mib:.1} MiB, above its {bound_mib:.1} MiB bound"))
}

#[test]
fn design_time_set_up_stays_within_its_footprint() {
    let system = casestudy::healthcare().expect("fixture builds");
    let config = GeneratorConfig::default().with_potential_reads();

    let before = mark();
    let lts = system.generate_lts_with(&config).expect("engine generates");
    let generation_peak = PEAK.load(Ordering::Relaxed) - before;
    let lts_bytes = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!((lts.state_count(), lts.transition_count()), (138_284, 1_430_952));

    let before_index = mark();
    let index = LtsIndex::build(&lts);
    let index_peak = PEAK.load(Ordering::Relaxed) - before;
    let index_bytes = LIVE.load(Ordering::Relaxed) - before_index;
    assert_eq!(index.transition_count(), lts.transition_count());

    let failures: Vec<String> = [
        pinned("lts live", lts_bytes, 32.8),
        pinned("generation peak", generation_peak, 58.3),
        pinned("index live", index_bytes, 7.2),
        pinned("index build peak", index_peak, 41.4),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
