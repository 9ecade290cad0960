//! Differential property test: random event schedules drained through the
//! reference `BinaryHeap` scheduler and the calendar queue must produce
//! identical `(time, seq)` sequences — including same-timestamp bursts,
//! far-future outliers, and pushes interleaved with pops and peeks under
//! the simulator's `at >= now` discipline. Long sequences cross several
//! re-tunes and drain-and-refill cycles (slot reuse); a deterministic hold
//! run keeps a steady population for 200k operations.

use p4auth_netsim::sched::{CalendarQueue, HeapScheduler, Scheduler};
use p4auth_netsim::time::SimTime;
use p4auth_primitives::rng::{RandomSource, SplitMix64};
use proptest::prelude::*;

/// One step of a randomly generated scheduler workload. Leads are relative
/// to the virtual `now` (the timestamp of the last popped event), matching
/// the simulator's only scheduling pattern.
#[derive(Clone, Debug)]
enum Op {
    /// Push one event `lead` ns into the future.
    Push(u64),
    /// Push a same-timestamp burst of `n` events, all at `now + lead`.
    Burst { lead: u64, n: u8 },
    /// Push an event far beyond any plausible bucket window.
    FarFuture(u64),
    /// Pop up to `n` events, advancing `now` to each popped timestamp.
    Pop(u8),
    /// Peek at the minimum, then push something possibly earlier than it
    /// (exercises the calendar queue's cursor pull-back and the
    /// peek-must-not-jump rule).
    PeekThenPush(u64),
    /// Push a same-timestamp burst attributed to several sources, with
    /// the simulator's packed `(source, per-source count)` tiebreak keys
    /// arriving in non-monotone key order — the insertion pattern several
    /// senders reaching one instant produce.
    CrossBurst { lead: u64, srcs: Vec<u8> },
    /// Drain to empty, then push `n` events `gap` ns apart: the refill
    /// lands in the slots the drain freed, and a large one crosses the
    /// next re-tune with them.
    DrainRefill { n: u16, gap: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..200_000).prop_map(Op::Push),
        ((0u64..5_000), 2u8..6).prop_map(|(lead, n)| Op::Burst { lead, n }),
        (1u64 << 32..1u64 << 44).prop_map(Op::FarFuture),
        (1u8..8).prop_map(Op::Pop),
        (0u64..10_000).prop_map(Op::PeekThenPush),
        ((0u64..5_000), proptest::collection::vec(0u8..4, 2..6))
            .prop_map(|(lead, srcs)| Op::CrossBurst { lead, srcs }),
    ]
}

/// [`op_strategy`], with one op in 25 a drain-and-refill (the shim's
/// `prop_oneof!` takes no weights, hence the die).
fn long_run_op_strategy() -> impl Strategy<Value = Op> {
    (0u8..25, op_strategy(), 1u16..400, 0u64..300).prop_map(|(die, op, n, gap)| match die {
        0 => Op::DrainRefill { n, gap },
        _ => op,
    })
}

/// Pops one event as the `(at, seq, payload)` the two schedulers must
/// agree on.
fn pop_one(s: &mut impl Scheduler<u64>) -> Option<(SimTime, u64, u64)> {
    s.pop().map(|e| (e.at, e.seq, e.payload))
}

/// Pops both schedulers to empty in lockstep, checking every peek and pop
/// agrees; returns the last timestamp popped.
fn drain_both(
    heap: &mut HeapScheduler<u64>,
    cal: &mut CalendarQueue<u64>,
    what: &str,
) -> Option<SimTime> {
    let mut last = None;
    loop {
        assert_eq!(heap.next_at(), cal.next_at(), "{what}");
        let (a, b) = (pop_one(heap), pop_one(cal));
        assert_eq!(a, b, "{what}");
        let Some((at, _, _)) = a else {
            assert!(cal.is_empty(), "{what}");
            return last;
        };
        last = Some(at);
    }
}

/// Applies the op sequence to both schedulers in lockstep, checking every
/// pop and peek agrees, then drains both and compares the tails.
fn run_diff(ops: &[Op], bucket_width_ns: u64) {
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_bucket_width(bucket_width_ns);
    // Per-source counts: seq keys pack `(source << 48) | count`, matching
    // the simulator's tiebreak discipline (unique, not globally monotone).
    let mut counts = [0u64; 4];
    let mut now = 0u64;
    let mut push = |h: &mut HeapScheduler<u64>, c: &mut CalendarQueue<u64>, at: u64, src: usize| {
        counts[src] += 1;
        let seq = ((src as u64) << 48) | counts[src];
        h.schedule(SimTime::from_ns(at), seq, seq);
        c.schedule(SimTime::from_ns(at), seq, seq);
    };
    // The shim does not shrink, so every failure names the op it hit.
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Push(lead) => push(&mut heap, &mut cal, now + lead, 0),
            Op::Burst { lead, n } => {
                for _ in 0..n {
                    push(&mut heap, &mut cal, now + lead, 0);
                }
            }
            Op::CrossBurst { lead, ref srcs } => {
                for &src in srcs {
                    push(&mut heap, &mut cal, now + lead, src as usize);
                }
            }
            Op::FarFuture(lead) => push(&mut heap, &mut cal, now + lead, 0),
            Op::Pop(n) => {
                for _ in 0..n {
                    let (a, b) = (pop_one(&mut heap), pop_one(&mut cal));
                    assert_eq!(a, b, "op {i}: {op:?}");
                    if let Some((at, _, _)) = a {
                        now = at.as_ns();
                    }
                }
            }
            Op::PeekThenPush(lead) => {
                assert_eq!(heap.next_at(), cal.next_at(), "op {i}: {op:?}");
                push(&mut heap, &mut cal, now + lead, 0);
            }
            Op::DrainRefill { n, gap } => {
                if let Some(at) = drain_both(&mut heap, &mut cal, &format!("op {i}: {op:?}")) {
                    now = at.as_ns();
                }
                for j in 0..u64::from(n) {
                    push(&mut heap, &mut cal, now + j * gap, (j % 4) as usize);
                }
            }
        }
        assert_eq!(heap.len(), cal.len(), "op {i}: {op:?}");
    }
    drain_both(&mut heap, &mut cal, "final drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn calendar_drains_identically_to_heap(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        // Spans the clamp floor, a mid value and widths larger than most
        // leads (so bucket occupancy patterns vary).
        width in prop_oneof![Just(1u64), Just(64), Just(1_000), Just(1 << 20)],
    ) {
        run_diff(&ops, width);
    }

    /// Long enough to cross three re-tunes and more (the threshold starts
    /// at 32 and doubles; the op mix nets about one pending event per op)
    /// and to run at a few hundred resident events between them.
    #[test]
    fn calendar_drains_identically_to_heap_across_retunes(
        ops in proptest::collection::vec(long_run_op_strategy(), 400..1_200),
        width in prop_oneof![Just(1u64), Just(1_000), Just(1 << 20)],
    ) {
        run_diff(&ops, width);
    }
}

/// A bucket holding three events takes inserts whose keys fall strictly
/// between its head's and its tail's, with the simulator's non-monotone
/// `(source << 48) | count` tiebreaks: the list-walk arm, which appends
/// and head inserts never reach.
#[test]
fn inserts_between_a_buckets_head_and_tail_keep_it_sorted() {
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    // One day is 2^20 ns wide, so every event below shares a bucket.
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_bucket_width(1 << 20);
    let key = |src: u64, count: u64| (src << 48) | count;
    let pushes = [
        // Three events: head (100, src 0), middle, tail (300, src 3).
        (100, key(0, 1)),
        (200, key(2, 1)),
        (300, key(3, 1)),
        // Between head and tail by time.
        (150, key(1, 1)),
        // Between two events of one timestamp, by source.
        (200, key(3, 2)),
        (200, key(0, 2)),
        (200, key(2, 2)),
        // Directly behind the head, directly in front of the tail.
        (100, key(0, 3)),
        (300, key(0, 4)),
    ];
    for (at, seq) in pushes {
        heap.schedule(SimTime::from_ns(at), seq, seq);
        cal.schedule(SimTime::from_ns(at), seq, seq);
    }
    assert_eq!(cal.bucket_width_ns(), 1 << 20, "no re-tune split the day");
    assert_eq!(heap.len(), pushes.len());
    drain_both(&mut heap, &mut cal, "one-day drain");
}

/// The hold model at about 4k resident events for 200k operations: the
/// steady state the proptest sequences are too short to reach. The fill
/// arrives in same-instant bursts and crosses seven re-tunes (the
/// threshold doubles from 32: 33, 67, 135, … 2175 bucketed events).
#[test]
fn steady_population_hold_run_matches_heap() {
    const RESIDENT: u64 = 4_000;
    let mut rng = SplitMix64::new(7);
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_bucket_width(1_000);
    for i in 0..RESIDENT {
        let (at, seq) = (SimTime::from_ns(i / 64 * 2_000), ((i % 4) << 48) | i);
        heap.schedule(at, seq, i);
        cal.schedule(at, seq, i);
    }
    for i in RESIDENT..RESIDENT + 200_000 {
        let (a, b) = (pop_one(&mut heap), pop_one(&mut cal));
        assert_eq!(a, b, "hold {i}");
        let (at, _, payload) = a.expect("a hold keeps the queue non-empty");
        let lead = match rng.next_u64() % 6 {
            0 => 1_500 + rng.next_u64() % 10_000,
            _ => 2_000,
        };
        let seq = ((i % 4) << 48) | i;
        heap.schedule(at + lead, seq, payload);
        cal.schedule(at + lead, seq, payload);
    }
    assert_eq!(heap.len(), cal.len());
    drain_both(&mut heap, &mut cal, "drain after the holds");
}

/// Pushes one event into both schedulers.
fn push_both(heap: &mut HeapScheduler<u64>, cal: &mut CalendarQueue<u64>, at: u64, seq: u64) {
    heap.schedule(SimTime::from_ns(at), seq, seq);
    cal.schedule(SimTime::from_ns(at), seq, seq);
}

/// Pops both schedulers once and checks they agree; returns the instant.
fn pop_both(heap: &mut HeapScheduler<u64>, cal: &mut CalendarQueue<u64>, what: &str) -> u64 {
    let (a, b) = (pop_one(heap), pop_one(cal));
    assert_eq!(a, b, "{what}");
    a.expect("the queue is not empty").0.as_ns()
}

/// A deep burst drains to a shallow hold while a few events filed late in
/// the burst, so in the slab's far slots, stay pending: the allocation
/// cursor wraps at its compaction limit (twice the bucketed population)
/// and sweeps a short prefix with those far slots still occupied, until
/// the far events pop in the middle of the hold.
#[test]
fn deep_burst_drained_to_a_shallow_hold_matches_heap() {
    const DEEP: u64 = 10_000;
    const FAR: u64 = 24;
    const SHALLOW: u64 = 40;
    let mut rng = SplitMix64::new(11);
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_bucket_width(1_000);
    let mut seq = 0u64;
    for i in 0..DEEP {
        seq += 1;
        // The last few of the burst are due far later, inside the window.
        let at = if i >= DEEP - FAR { 200_000 + i } else { i * 10 };
        push_both(&mut heap, &mut cal, at, seq);
    }
    let mut now = 0;
    while heap.len() as u64 > SHALLOW + FAR {
        now = pop_both(&mut heap, &mut cal, "drain to the hold");
    }
    for i in 0..60_000u64 {
        now = pop_both(&mut heap, &mut cal, &format!("hold {i}"));
        let lead = match rng.next_u64() % 6 {
            0 => 1_500 + rng.next_u64() % 10_000,
            _ => 2_000,
        };
        seq += 1;
        push_both(&mut heap, &mut cal, now + lead, seq);
    }
    assert!(
        now > 200_000 + DEEP,
        "the far events popped during the hold"
    );
    drain_both(&mut heap, &mut cal, "drain after the hold");
}

/// Every slot occupied, over several summary words (5,000 slots is 79
/// bitmap words): each push after a pop must find the one slot the pop
/// freed through the summary bits, from wherever the cursor stands, and
/// every 97th step pushes one more event so the slab grows while full.
#[test]
fn exactly_full_slab_matches_heap() {
    const RESIDENT: u64 = 5_000;
    let mut rng = SplitMix64::new(12);
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_bucket_width(1_000);
    let mut seq = 0u64;
    for i in 0..RESIDENT {
        seq += 1;
        push_both(&mut heap, &mut cal, i * 3, seq);
    }
    for i in 0..50_000u64 {
        let now = pop_both(&mut heap, &mut cal, &format!("step {i}"));
        // Random leads: pop order has nothing to do with slot order.
        for _ in 0..1 + u64::from(i % 97 == 0) {
            seq += 1;
            push_both(&mut heap, &mut cal, now + 1 + rng.next_u64() % 20_000, seq);
        }
    }
    assert_eq!(heap.len() as u64, RESIDENT + 50_000 / 97 + 1);
    drain_both(&mut heap, &mut cal, "drain after the full-slab steps");
}

/// A re-tune fires while the cursor is mid-slab: a steady hold moves the
/// cursor away from the slab's start, then a wide burst crosses the
/// doubled threshold. The re-tune moves events past the new window into
/// the overflow heap (freeing their slots behind and ahead of the cursor)
/// and refills those inside it, and the hold resumes on the new geometry.
#[test]
fn retune_in_the_middle_of_a_sweep_matches_heap() {
    let mut rng = SplitMix64::new(13);
    let mut heap: HeapScheduler<u64> = HeapScheduler::new();
    let mut cal: CalendarQueue<u64> = CalendarQueue::with_bucket_width(64);
    let mut seq = 0u64;
    for i in 0..1_500u64 {
        seq += 1;
        push_both(&mut heap, &mut cal, i * 40, seq);
    }
    let mut now = 0;
    for round in 0..3u64 {
        for i in 0..2_000u64 {
            now = pop_both(&mut heap, &mut cal, &format!("round {round} hold {i}"));
            seq += 1;
            push_both(&mut heap, &mut cal, now + 2_000 + rng.next_u64() % 64, seq);
        }
        // Enough to cross the next threshold, spread so that the re-tune
        // splits them between the ring and the overflow heap.
        for i in 0..(4_000u64 << round) {
            seq += 1;
            let lead = if i % 2 == 0 { i * 3 } else { 1 << 24 | i };
            push_both(&mut heap, &mut cal, now + lead, seq);
        }
    }
    drain_both(&mut heap, &mut cal, "drain after the re-tunes");
}
