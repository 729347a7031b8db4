//! Cost gates: what the serve stack's per-request recording may cost.
//!
//! A counting global allocator wraps the system allocator and counts
//! every allocation the current thread makes. Each gate warms its call
//! up once (so one-time setup does not count) and then asserts that the
//! call allocates nothing: recording a served request must not build a
//! metric name or grow a map. Counters are thread-local, so the
//! service's own worker threads never perturb the reading of the test
//! thread.
//!
//! The allocator is the one `unsafe` item of the workspace's tests; the
//! library crates stay `#![forbid(unsafe_code)]`.

use serve::{Request, ServeObs, Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation (and reallocation)
/// of the calling thread.
struct CountingAllocator;

fn count_one() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees for `GlobalAlloc` hold for the call it makes;
// counting touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations `call` makes on this thread, after one warm-up call.
fn allocations_after_warm_up(mut call: impl FnMut()) -> u64 {
    call();
    let before = ALLOCATIONS.with(Cell::get);
    call();
    ALLOCATIONS.with(Cell::get) - before
}

fn metrics_on() -> Arc<Service> {
    Arc::new(Service::new(ServiceConfig {
        metrics: true,
        ..ServiceConfig::smoke(1)
    }))
}

fn hub(service: &Service) -> &ServeObs {
    let hub = service.obs();
    assert!(hub.enabled());
    hub
}

#[test]
fn recording_a_served_verb_allocates_nothing() {
    let service = metrics_on();
    let hub = hub(&service);
    let verb = Request::Sync.verb();
    for codec in ["json", "binary"] {
        let allocations = allocations_after_warm_up(|| hub.record_net_verb(verb, codec, 1_234));
        assert_eq!(allocations, 0, "record_net_verb({verb}, {codec})");
    }
    let allocations = allocations_after_warm_up(|| hub.record_verb(verb, 1_234));
    assert_eq!(allocations, 0, "record_verb({verb})");
}

#[test]
fn counting_connections_allocates_nothing() {
    let service = metrics_on();
    let hub = hub(&service);
    assert_eq!(
        allocations_after_warm_up(|| hub.connection_opened()),
        0,
        "connection_opened"
    );
    assert_eq!(
        allocations_after_warm_up(|| hub.connection_closed()),
        0,
        "connection_closed"
    );
}

/// The gates read something: the same counter sees a real allocation.
#[test]
fn the_counting_allocator_counts_this_thread() {
    let allocations = allocations_after_warm_up(|| {
        std::hint::black_box(format!("serve_verb_{}_latency_ns", Request::Sync.verb()));
    });
    assert!(allocations >= 1, "{allocations}");
}
