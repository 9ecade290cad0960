//! The trace log costs what it holds.
//!
//! A [`TraceLog`] of capacity *C* fed from a fleet's worth of sources —
//! eighty nodes, a controller replica at `0xFE01`, the campaign harness
//! at `0xFFFF` — keeps *C* stored spans of 64 bytes and a per-source
//! sequence table of a few hundred bytes. A counting global allocator
//! holds it to that: a sequence table indexed by the whole `u16`
//! (512 KiB), a ring rounded up to the next power of two or a ring of
//! 72-byte [`SpanRecord`]s fails here, by name, instead of as a higher
//! `peak_rss_bytes` on `ctrl_fleet`. Each slot of either log's ring is
//! allocated once: from the first record through two wraps the ring
//! makes one allocation per 1,024-slot chunk plus one for the chunk
//! table, and never copies an item to grow. A ring that doubles its way
//! up allocates once per doubling and copies half its bound on the last
//! growth; that copy, or one 4 MiB block's placement in the heap, moved
//! `ctrl_fleet`'s peak RSS by 2 to 4 MB with the length of the
//! executable's path.
//!
//! [`SpanRecord`]: p4auth_telemetry::SpanRecord

use p4auth_telemetry::alloc::{allocations, live_bytes, CountingAlloc};
use p4auth_telemetry::{Event, EventLog, SpanKind, TraceLog};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn sources() -> impl Iterator<Item = u16> {
    (1..=80).chain([0xFE01, 0xFFFF])
}

/// What the trace ring keeps per span: a `SpanRecord` without its id
/// (`trace::StoredSpan`, pinned by a unit test there).
const STORED_SPAN_BYTES: usize = 64;

/// Allocations a ring of `capacity` makes in its life: one per chunk of
/// `ring::CHUNK` (1,024) slots, and the chunk table.
fn ring_allocations(capacity: usize) -> u64 {
    capacity.div_ceil(1024) as u64 + 1
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
        let held = (capacity * STORED_SPAN_BYTES) as u64;
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

    for capacity in [1_000usize, 5_000] {
        // One source, whose sequence slot the open below takes before
        // the count starts: what is counted is the ring alone.
        let log = TraceLog::with_capacity(capacity);
        let first = log.start(SpanKind::CampaignPhase, 0, 0xFFFF).unwrap();
        let allocs = allocations();
        log.end(first, 0, 0, 0);
        for t in 1..3 * capacity as u64 {
            log.instant(SpanKind::FrameDeliver, t, 0xFFFF, 0, 0);
        }
        assert_eq!(log.dropped(), 2 * capacity as u64, "the ring wrapped twice");
        assert_eq!(
            allocations() - allocs,
            ring_allocations(capacity),
            "a trace ring of {capacity} allocated a slot twice"
        );

        let events = EventLog::with_capacity(capacity);
        let allocs = allocations();
        for t in 0..3 * capacity as u64 {
            events.record(
                t,
                Event::FrameDelivered {
                    node: 1,
                    port: 1,
                    bytes: 34,
                },
            );
        }
        assert_eq!(events.len(), capacity);
        assert_eq!(events.overflowed(), 2 * capacity as u64);
        assert_eq!(
            allocations() - allocs,
            ring_allocations(capacity),
            "an event ring of {capacity} allocated a slot twice"
        );
    }
}
