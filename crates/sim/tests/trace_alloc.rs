//! Regression test for the zero-cost-when-off guarantee: emitting trace
//! events allocates nothing — neither through a disabled tracer (the
//! production default) nor through a ring at capacity (pre-allocated
//! storage, eviction by overwrite).
//!
//! A counting global allocator observes every heap allocation in the
//! process; the file holds exactly one `#[test]` so no concurrent test
//! can perturb the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use swallow_sim::{Time, TraceEvent, Tracer};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn emit_storm(tracer: &mut Tracer, rounds: u64) {
    for i in 0..rounds {
        let at = Time::from_ps(i);
        tracer.emit(at, TraceEvent::CoreWake { core: i as u16 });
        tracer.emit(
            at,
            TraceEvent::ThreadSchedule {
                core: i as u16,
                thread: (i % 8) as u8,
                pc: i as u32,
            },
        );
        tracer.emit(
            at,
            TraceEvent::BlockRetire {
                core: i as u16,
                thread: 0,
                instret: 42,
                since: Time::ZERO,
                reason: "recv",
            },
        );
        tracer.emit(
            at,
            TraceEvent::SupplySample {
                slice: 0,
                rail: (i % 5) as u8,
                microwatts: i,
            },
        );
    }
}

#[test]
fn emitting_never_allocates_on_the_hot_path() {
    // Case 1: the production default — tracing off.
    let mut off = Tracer::Off;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    emit_storm(&mut off, 10_000);
    let with_off = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(with_off, 0, "Tracer::Off must not allocate per event");

    // Case 2: a ring at capacity — eviction is an in-place overwrite.
    let mut ring = Tracer::ring_with_capacity(64);
    emit_storm(&mut ring, 64); // fill to capacity (allocations here are fine)
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    emit_storm(&mut ring, 10_000);
    let with_ring = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        with_ring, 0,
        "a full TraceRing must evict without allocating"
    );
    let ring = ring.ring().expect("ring tracer");
    assert_eq!(ring.len(), 64);
    assert!(ring.dropped() > 0, "eviction path was actually exercised");
}
