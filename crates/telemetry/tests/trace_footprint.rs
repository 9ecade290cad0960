//! The trace log costs what it holds.
//!
//! A [`TraceLog`] of capacity *C* fed from a fleet's worth of sources —
//! eighty nodes, a controller replica at `0xFE01`, the campaign harness
//! at `0xFFFF` — keeps *C* records and a per-source sequence table of a
//! few hundred bytes. A counting global allocator holds it to that: a
//! sequence table indexed by the whole `u16` (512 KiB) or a ring rounded
//! up to the next power of two fails here, by name, instead of as a
//! higher `peak_rss_bytes` on `ctrl_fleet`. And once either log is full,
//! recording into it never reaches the allocator again.

use p4auth_telemetry::alloc::{allocations, live_bytes, CountingAlloc};
use p4auth_telemetry::{Event, EventLog, SpanKind, SpanRecord, TraceLog};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn sources() -> impl Iterator<Item = u16> {
    (1..=80).chain([0xFE01, 0xFFFF])
}

/// One span from every source, `laps` times over.
fn feed(log: &TraceLog, laps: u64) {
    for lap in 0..laps {
        for source in sources() {
            log.instant(SpanKind::FrameDeliver, lap, source, 0, 0);
        }
    }
}

// One test, so no other thread of this binary allocates while it counts.
#[test]
fn a_full_log_holds_its_records_and_stops_allocating() {
    // Neither a power of two, so a doubling buffer would overshoot.
    for capacity in [1_000usize, 5_000] {
        let before = live_bytes();
        let log = TraceLog::with_capacity(capacity);
        let laps = 3 * capacity as u64 / sources().count() as u64;
        feed(&log, laps);
        assert_eq!(log.len(), capacity);
        assert!(log.dropped() > capacity as u64, "the ring wrapped twice");
        let held = (capacity * std::mem::size_of::<SpanRecord>()) as u64;
        let live = live_bytes() - before;
        println!("capacity {capacity}: {live} B live for {held} B of records");
        assert!(
            live <= held + 4096,
            "{capacity} spans ({held} B) cost {live} B of log"
        );

        let allocs = allocations();
        feed(&log, laps);
        assert_eq!(allocations(), allocs, "a full trace log allocated");
    }

    let events = EventLog::with_capacity(1_000);
    let record = |n: u64| {
        for t in 0..n {
            events.record(
                t,
                Event::FrameDelivered {
                    node: 1,
                    port: 1,
                    bytes: 34,
                },
            );
        }
    };
    record(1_000);
    assert_eq!((events.len(), events.overflowed()), (1_000, 0));
    let allocs = allocations();
    record(3_000);
    assert_eq!(allocations(), allocs, "a full event log allocated");
    assert_eq!(events.overflowed(), 3_000);
}
