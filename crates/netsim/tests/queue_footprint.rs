//! The calendar queue costs what it holds.
//!
//! A hold model (pop one, schedule one) keeps a fixed resident population
//! in the queue for 200 holds per resident event, long enough for the
//! drain cursor to lap the ring many times. A counting global allocator
//! bounds the queue's peak heap at a small multiple of the bytes the
//! resident events themselves occupy. When every day bucket owned a
//! `VecDeque` this loop read 37× / 75× / 73×: each lap left a buffer
//! behind in every bucket it touched, sized for the deepest that bucket
//! had ever been.

use p4auth_netsim::sched::{CalendarQueue, Scheduled, Scheduler};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use p4auth_telemetry::alloc::{live_bytes, peak_bytes, reset_peak, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// As large as the simulator's own event payload (72 bytes), so a slot
/// and a ring bucket weigh against each other as they do in a fabric run.
type Payload = [u64; 9];

/// The fabric's constant link lead.
const LINK_LEAD_NS: u64 = 2_000;
/// Same-instant events per fill burst, one burst per link lead: an
/// aggregate's window wake emits its due frames at one timestamp.
const BURST: u64 = 64;

/// Peak heap growth of one queue held at `population` resident events,
/// in bytes.
fn peak_growth(population: u64) -> u64 {
    let mut rng = SplitMix64::new(population);
    reset_peak();
    let before = live_bytes();
    let mut queue: CalendarQueue<Payload> = CalendarQueue::with_bucket_width(1_000);
    for seq in 0..population {
        let at = SimTime::from_ns(seq / BURST * LINK_LEAD_NS);
        queue.schedule(at, seq, [seq; 9]);
    }
    for seq in population..population * 201 {
        let ev = queue.pop().expect("a hold keeps the queue non-empty");
        let lead = match rng.next_u64() % 6 {
            0 => 1_500 + rng.next_u64() % 10_000,
            _ => LINK_LEAD_NS,
        };
        queue.schedule(ev.at + lead, seq, ev.payload);
    }
    assert_eq!(queue.len() as u64, population);
    peak_bytes() - before
}

// One test, so no other thread of this binary allocates while it counts.
#[test]
fn peak_heap_is_a_small_multiple_of_the_resident_events() {
    for population in [1_000, 4_000, 16_000] {
        let held = population * std::mem::size_of::<Scheduled<Payload>>() as u64;
        let peak = peak_growth(population);
        println!(
            "{population} resident: peak {peak} B = {:.1}x the events held",
            peak as f64 / held as f64
        );
        assert!(
            peak <= 4 * held,
            "{population} resident events ({held} B) cost {peak} B of queue"
        );
    }
}
