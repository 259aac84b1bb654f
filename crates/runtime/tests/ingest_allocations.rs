//! Heap allocations of the indexed monitor's ingest paths, and of the
//! event-log index build, counted by a global allocator.
//!
//! Once a monitor is warm — its users decoded into slots and its ingest
//! buffers grown by an earlier batch — an event allocates nothing of its
//! own: `ingest_batch` and `observe` reuse the monitor's bucket, pair and
//! alert buffers. A raised alert costs its message and nothing more: the
//! alerts a call returns are the newest entries of the pending list, lent
//! rather than cloned, and draining them moves them out. The event-log
//! index looks each event's label up by its borrowed parts, so a build
//! allocates per new label and erasure pair, never per event.

// The counting allocator needs `unsafe impl GlobalAlloc`; it only forwards
// to `System`.
#![allow(unsafe_code)]

use privacy_core::casestudy;
use privacy_lts::LtsIndex;
use privacy_model::{Record, UserId, UserProfile};
use privacy_runtime::{Event, EventLog, EventLogIndex, IndexedMonitor, ServiceEngine};
use privacy_synth::{random_workload, WorkloadConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations (including reallocations) made by the current thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A const-initialised `Cell` has no destructor, so this neither
    // allocates nor fails during thread teardown.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; counting only bumps a
// thread-local `Cell`, which never re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// A one-thread healthcare monitor, the profiles it tracks (32 users who
/// consent to nothing, so first exposures alert) and 600 events of a random
/// workload over them.
fn healthcare_fixture() -> (IndexedMonitor, Vec<UserProfile>, Vec<Event>) {
    let system = casestudy::healthcare().expect("healthcare model");
    let services: Vec<_> = system.catalog().services().map(|s| s.id().clone()).collect();
    let fields: Vec<_> = system.catalog().fields().map(|f| f.id().clone()).collect();
    let profiles: Vec<UserProfile> =
        (0..32).map(|i| UserProfile::new(UserId::new(format!("patient-{i:03}")))).collect();
    let mut engine = ServiceEngine::new(
        system.catalog().clone(),
        system.dataflows().clone(),
        system.policy().clone(),
    );
    let workload = random_workload(&WorkloadConfig {
        length: 600,
        seed: 29,
        users: profiles.iter().map(|p| p.id().clone()).collect(),
        services: services.iter().map(|s| (s.clone(), 1.0)).collect(),
    });
    for request in &workload {
        let record =
            fields.iter().fold(Record::new(), |record, field| record.with(field.clone(), "v"));
        let _ = engine.execute(request.user(), request.service(), &record);
    }
    let lts = system.generate_lts().expect("lts");
    let index = Arc::new(LtsIndex::build(&lts));
    let monitor = IndexedMonitor::new(system.catalog().clone(), system.policy().clone(), index)
        .with_threads(Some(1));
    (monitor, profiles, engine.log().events().to_vec())
}

/// A monitor that has ingested `events` twice in one batch — every user
/// decoded, every ingest buffer grown — and then re-registered every user,
/// so the same events raise the same alerts again.
fn warm_monitor() -> (IndexedMonitor, Vec<UserProfile>, Vec<Event>) {
    let (mut monitor, profiles, events) = healthcare_fixture();
    for profile in &profiles {
        monitor.register_user(profile);
    }
    let _ = monitor.ingest_batch(&doubled(&events));
    let _ = monitor.drain_alerts();
    for profile in &profiles {
        monitor.register_user(profile);
    }
    (monitor, profiles, events)
}

/// `events` twice over, in order.
fn doubled(events: &[Event]) -> Vec<Event> {
    events.iter().chain(events).cloned().collect()
}

#[test]
fn a_warm_batch_allocates_one_message_per_alert_and_one_pending_list() {
    let (mut monitor, profiles, events) = warm_monitor();
    let (raised, allocations) = counted(|| monitor.ingest_batch(&events).len());
    assert!(raised > 0, "the workload must raise alerts for this test to pin anything");
    // Each alert's message, plus the pending list the first one lands in
    // after the last drain: no alert is cloned, no event allocates.
    assert_eq!(allocations, raised + 1, "{raised} alerts over {} events", events.len());
    let (drained, allocations) = counted(|| monitor.drain_alerts());
    assert_eq!((drained.len(), allocations), (raised, 0), "the drain moves the alerts out");

    // Twice the events, of which the second half exposes nothing new: the
    // same allocations as the events alone.
    for profile in &profiles {
        monitor.register_user(profile);
    }
    let doubled = doubled(&events);
    let (again, allocations) = counted(|| monitor.ingest_batch(&doubled).len());
    assert_eq!((again, allocations), (raised, raised + 1), "a warm event allocated");
    assert_eq!(monitor.drain_alerts(), drained, "the doubled batch raised the same alerts");
}

#[test]
fn a_warm_observe_allocates_only_the_alerts_it_raises() {
    let (mut monitor, _, events) = warm_monitor();
    let mut raised = 0;
    let mut raising_events = 0;
    let ((), allocations) = counted(|| {
        for event in &events {
            let alerts = monitor.observe(event).len();
            raised += alerts;
            raising_events += usize::from(alerts > 0);
            let _ = monitor.drain_alerts();
        }
    });
    assert!(raised > 0, "the workload must raise alerts for this test to pin anything");
    // Each alert's message, plus one pending list per event that raised
    // any (each is drained before the next event).
    assert_eq!(allocations, raised + raising_events, "{raised} alerts, {raising_events} events");
}

#[test]
fn the_log_index_allocates_per_label_not_per_event() {
    let (_, _, events) = healthcare_fixture();
    let mut log = EventLog::new();
    log.extend(events.iter().cloned());
    let (mut index, built) = counted(|| EventLogIndex::build(&log));
    let labels = index.groups().count();
    let pairs = index.erasure_timelines().count();
    assert!(events.len() > 100 * labels, "{} events over {labels} labels", events.len());
    // The doublings a vector of every event could go through.
    let growth = (usize::BITS - events.len().leading_zeros()) as usize;
    // A new label costs its field set, its hash bucket and its group's
    // doublings; a new erasure pair at most one map node; the label, group
    // and bucket tables grow by doubling too. No event costs anything.
    let bound = labels * (2 + growth) + pairs + 3 * growth;
    assert!(built <= bound, "{built} allocations over {} events, bound {bound}", events.len());
    // Every label and erasure pair of the events is known now: appending
    // them again only doubles some groups.
    let (_, appended) = counted(|| index.append(&events));
    assert!(appended <= labels, "{appended} allocations appending {} events", events.len());
}
