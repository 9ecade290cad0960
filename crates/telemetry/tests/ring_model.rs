//! The hot primitives against the obvious models.
//!
//! [`TraceLog`] and [`EventLog`] keep their records in a chunked ring
//! that is overwritten in place; the model is a `VecDeque` that pops its
//! front.
//! The trace model also carries the span-id recipe and a `BTreeMap` of
//! per-source sequence numbers, written out here a second time on
//! purpose: ids and `seq` are in every exported trace, so whichever way
//! the log takes its lock or finds a source's counter, an instant has to
//! come out exactly as `start` followed by `end` always did.
//! [`Histogram`] derives its count from the buckets and skips the
//! extremum writes that would change nothing; the model is a `Vec<u64>`
//! of the samples. The metric handles keep an owner thread's updates
//! apart from everyone else's; with five threads writing at once, the
//! models are plain sums of what each thread wrote.

use p4auth_telemetry::{
    Counter, Event, EventLog, EventRecord, Gauge, Histogram, OpenSpan, Registry, SpanKind,
    SpanRecord, TraceLog, HISTOGRAM_BUCKETS,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// Low node ids next to each other and far apart, the last dense source
/// and the first sparse one, a controller replica and the campaign
/// pseudo-source.
const SOURCES: [u16; 9] = [0, 1, 2, 80, 1023, 1024, 0xFE00, 0xFE01, 0xFFFF];

const KINDS: [SpanKind; 4] = [
    SpanKind::FrameDeliver,
    SpanKind::DigestReject,
    SpanKind::Mitigation,
    SpanKind::RolloverEpoch,
];

const CAPACITIES: [usize; 3] = [1, 2, 64];

/// The span-id recipe as `trace.rs` documents it.
fn model_id(kind: SpanKind, start_ns: u64, source: u16, seq: u64) -> u64 {
    let mut z = start_ns
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((kind as u64) << 48)
        .wrapping_add(u64::from(source) << 24)
        .wrapping_add(seq);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

/// Drop-oldest by popping the front.
struct ModelRing<T> {
    capacity: usize,
    buf: VecDeque<T>,
    dropped: u64,
}

impl<T> ModelRing<T> {
    fn new(capacity: usize) -> Self {
        ModelRing {
            capacity,
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }
}

struct ModelTrace {
    ring: ModelRing<SpanRecord>,
    next_seq: BTreeMap<u16, u64>,
}

impl ModelTrace {
    /// A span as it stands at `start` / `child`: `end_ns` and the args
    /// are filled in when it ends.
    fn open(
        &mut self,
        parent: Option<&SpanRecord>,
        kind: SpanKind,
        start_ns: u64,
        source: u16,
    ) -> SpanRecord {
        let slot = self.next_seq.entry(source).or_insert(0);
        let seq = *slot;
        *slot += 1;
        let span_id = model_id(kind, start_ns, source, seq);
        SpanRecord {
            trace_id: parent.map_or(span_id, |p| p.trace_id),
            span_id,
            parent_id: parent.map_or(0, |p| p.span_id),
            kind,
            source,
            start_ns,
            end_ns: start_ns,
            seq,
            arg_a: 0,
            arg_b: 0,
        }
    }

    fn end(&mut self, open: SpanRecord, end_ns: u64, arg_a: u64, arg_b: u64) {
        self.ring.push(SpanRecord {
            end_ns: end_ns.max(open.start_ns),
            arg_a,
            arg_b,
            ..open
        });
    }
}

fn assert_trace_matches(log: &TraceLog, model: &ModelTrace) {
    let expected: Vec<SpanRecord> = model.ring.buf.iter().copied().collect();
    assert_eq!(log.records(), expected, "contents, oldest first");
    assert_eq!(log.len(), expected.len());
    assert_eq!(log.is_empty(), expected.is_empty());
    assert_eq!(log.dropped(), model.ring.dropped);
    let mut sorted = expected;
    sorted.sort_unstable_by_key(SpanRecord::sort_key);
    assert_eq!(log.sorted_records(), sorted);
}

/// One step of trace traffic: `(what, source, kind, time, pick, arg)`.
type TraceOp = (u8, usize, usize, u32, usize, u64);

fn trace_ops() -> impl Strategy<Value = Vec<TraceOp>> {
    prop::collection::vec(
        (
            0u8..10,
            0..SOURCES.len(),
            0..KINDS.len(),
            any::<u32>(),
            any::<usize>(),
            any::<u64>(),
        ),
        0..1000,
    )
}

fn run_trace(capacity: usize, ops: &[TraceOp]) {
    let log = TraceLog::with_capacity(capacity);
    let mut model = ModelTrace {
        ring: ModelRing::new(capacity),
        next_seq: BTreeMap::new(),
    };
    // Spans started and not yet ended, as the log and the model hold them.
    let mut open: Vec<(OpenSpan, SpanRecord)> = Vec::new();
    for &(what, source, kind, t, pick, arg) in ops {
        let (source, kind, t) = (SOURCES[source], KINDS[kind], u64::from(t));
        let parent = (!open.is_empty()).then(|| open[pick % open.len()]);
        match (what, parent) {
            (3, _) => {
                let started = log.start(kind, t, source).expect("enabled");
                open.push((started, model.open(None, kind, t, source)));
            }
            (4, Some((of, of_model))) => {
                let started = log.child(&of, kind, t, source).expect("enabled");
                open.push((started, model.open(Some(&of_model), kind, t, source)));
            }
            (5, Some((of, of_model))) => {
                log.instant_in(&of, kind, t, source, arg, 7);
                let span = model.open(Some(&of_model), kind, t, source);
                model.end(span, t, arg, 7);
            }
            (6 | 7, Some(_)) => {
                // `t` may lie before the span's start: the end clamps.
                let (span, span_model) = open.swap_remove(pick % open.len());
                assert_eq!(span.span_id(), span_model.span_id);
                assert_eq!(span.trace_id(), span_model.trace_id);
                assert_eq!(span.start_ns(), span_model.start_ns);
                log.end(span, t, arg, 1);
                model.end(span_model, t, arg, 1);
            }
            (8 | 9, _) => assert_trace_matches(&log, &model),
            // 0..=2, and whatever wanted an open span when there is none.
            _ => {
                log.instant(kind, t, source, arg, !arg);
                let span = model.open(None, kind, t, source);
                model.end(span, t, arg, !arg);
            }
        }
    }
    assert_trace_matches(&log, &model);
}

fn event(i: u64) -> Event {
    match i % 3 {
        0 => Event::FrameDelivered {
            node: i as u16,
            port: 1,
            bytes: 34,
        },
        1 => Event::ReplayDetected {
            peer: 2,
            channel: 0,
            last_accepted: i,
            got: i / 2,
        },
        _ => Event::KexStep {
            node: 3,
            step: "adhkd_offer",
        },
    }
}

fn run_events(capacity: usize, ops: &[u8]) {
    let log = EventLog::with_capacity(capacity);
    let mut model: ModelRing<EventRecord> = ModelRing::new(capacity);
    let check = |log: &EventLog, model: &ModelRing<EventRecord>| {
        assert_eq!(log.len(), model.buf.len());
        assert_eq!(log.is_empty(), model.buf.is_empty());
        assert_eq!(log.overflowed(), model.dropped);
    };
    for (i, &op) in ops.iter().enumerate() {
        let i = i as u64;
        match op {
            // Rare enough that the ring wraps several times between two.
            0 => {
                let expected: Vec<EventRecord> = model.buf.drain(..).collect();
                assert_eq!(log.drain(), expected, "drained, oldest first");
                assert!(log.is_empty());
            }
            1..=8 => {
                let expected: Vec<EventRecord> = model.buf.iter().cloned().collect();
                assert_eq!(log.to_vec(), expected, "contents, oldest first");
            }
            _ => {
                log.record(i, event(i));
                model.push(EventRecord {
                    t_ns: i,
                    event: event(i),
                });
            }
        }
        check(&log, &model);
    }
}

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// `quantile(q)` read off the sorted samples: the bucket bound of the
/// sample at rank `ceil(q * n)`, never above the largest sample.
fn model_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    let at_rank = *sorted.get(rank - 1)?;
    let bound = Histogram::bucket_upper_bound(bucket_of(at_rank));
    Some(bound.min(*sorted.last()?))
}

fn check_histogram(samples: &[u64]) {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    assert_histogram_holds(&h, samples);
}

fn assert_histogram_holds(h: &Histogram, samples: &[u64]) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(
        h.sum(),
        samples.iter().fold(0u64, |s, &v| s.wrapping_add(v))
    );
    assert_eq!(h.min(), sorted.first().copied());
    assert_eq!(h.max(), sorted.last().copied());
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    for &v in samples {
        buckets[bucket_of(v)] += 1;
    }
    assert_eq!(h.buckets(), buckets);
    for q in [0.5, 0.99, 1.0] {
        assert_eq!(h.quantile(q), model_quantile(&sorted, q), "q = {q}");
    }
    let mean = h.mean();
    assert_eq!(mean.is_some(), !samples.is_empty());
}

/// Both rings across their 1,024-slot chunks: two full chunks and a
/// partial one, wrapped more than twice and read back along the way.
#[test]
fn rings_spanning_chunks_match_their_models() {
    let capacity = 2_500;
    let trace: Vec<TraceOp> = (0..8_000u32)
        .map(|i| {
            let what = if i % 700 == 699 { 8 } else { (i % 8) as u8 };
            let (source, kind) = (i as usize % SOURCES.len(), i as usize % KINDS.len());
            (what, source, kind, i, 7 * i as usize, u64::from(i))
        })
        .collect();
    run_trace(capacity, &trace);
    let events: Vec<u8> = (0..8_000u32)
        .map(|i| match i {
            6_000 => 0,
            _ if i % 700 == 1 => 1,
            _ => 9,
        })
        .collect();
    run_events(capacity, &events);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trace_log_is_a_drop_oldest_ring_with_the_same_ids(ops in trace_ops()) {
        for capacity in CAPACITIES {
            run_trace(capacity, &ops);
        }
    }

    #[test]
    fn event_log_is_a_drop_oldest_ring(ops in prop::collection::vec(0u8..=255, 0..600)) {
        for capacity in CAPACITIES {
            run_events(capacity, &ops);
        }
    }

    #[test]
    fn histogram_agrees_with_its_samples(
        samples in prop::collection::vec(
            prop_oneof![
                Just(0u64),
                Just(u64::MAX),
                0u64..1_000,
                any::<u64>(),
                any::<u64>().prop_map(|v| v >> 40),
            ],
            0..200,
        )
    ) {
        check_histogram(&samples);
    }
}

#[test]
fn histogram_edge_cases() {
    check_histogram(&[]);
    // The two samples that equal an empty mark.
    check_histogram(&[0]);
    check_histogram(&[u64::MAX]);
    check_histogram(&[u64::MAX, 0]);
    // Descending, ascending: every sample moves one extremum.
    check_histogram(&[9, 7, 5, 3, 1]);
    check_histogram(&[1, 3, 5, 7, 9]);
}

#[test]
fn adding_zero_leaves_a_counter_alone() {
    let c = Counter::new();
    c.add(0);
    assert_eq!(c.get(), 0);
    c.add(3);
    c.add(0);
    assert_eq!(c.get(), 3);
}

/// Writers of the handles in `owner_and_four_threads_lose_no_update`:
/// the test's own thread, which writes first and so owns them, and four
/// scoped threads.
const WRITERS: u64 = 5;

/// Updates each writer makes per handle in each of its three streams.
const STREAM: u64 = 100_000;

/// Updates between two barriers. Released together ten times a stream,
/// the writers run at once on every core there is instead of taking
/// turns, which is what lets a lost update show.
const CHUNK: u64 = 10_000;

/// Writer `w`'s `i`-th sample in stream `phase`: every bit length, and
/// both empty marks (0, `u64::MAX`) from threads that do not own the
/// histogram.
fn sample(w: u64, phase: u64, i: u64) -> u64 {
    match (w, phase, i) {
        (1, 0, 7) => u64::MAX,
        (2, 1, 9) => 0,
        _ => (w << 56 | phase << 48 | i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64),
    }
}

/// Writer `w`'s `i`-th counter add (zero every third) and gauge move.
fn step(w: u64, i: u64) -> (u64, i64) {
    (i % 3 * (w + 1), (i % 7) as i64 - 3 - w as i64)
}

/// What the oracle expects after all three streams: the counter and
/// gauge totals and every sample.
fn streams_model(gauge_base: i64) -> (u64, i64, Vec<u64>) {
    let (mut count, mut gauge, mut samples) = (1, gauge_base, vec![1]);
    for phase in 0..3 {
        for w in 0..WRITERS {
            for i in 0..STREAM {
                let (add, moved) = step(w, i);
                count += add;
                if phase == 2 {
                    gauge += moved;
                }
                samples.push(sample(w, phase, i));
            }
        }
    }
    (count, gauge, samples)
}

/// Five threads hammer one counter, one gauge and one histogram at once;
/// nothing may be lost. Barriers force the overlap: the writers restart
/// together every `CHUNK` updates, and each `set` happens while the rest
/// wait between two streams, once from a thread that does not own the
/// gauge and once from the owner.
#[test]
fn owner_and_four_threads_lose_no_update() {
    const SET_BY_OTHER: i64 = -1_000_000;
    const SET_BY_OWNER: i64 = 7_777;
    let (c, g, h) = (Counter::new(), Gauge::new(), Histogram::new());
    c.inc();
    g.add(1);
    h.record(1);
    let barrier = std::sync::Barrier::new(WRITERS as usize);
    let stream = |w: u64, phase: u64| {
        for i in 0..STREAM {
            if i % CHUNK == 0 {
                barrier.wait();
            }
            let (add, moved) = step(w, i);
            c.add(add);
            if moved < 0 {
                g.sub(-moved);
            } else {
                g.add(moved);
            }
            h.record(sample(w, phase, i));
        }
        barrier.wait();
    };
    let writer = |w: u64| {
        stream(w, 0);
        if w == 1 {
            g.set(SET_BY_OTHER);
            assert_eq!(g.get(), SET_BY_OTHER);
        }
        stream(w, 1);
        if w == 0 {
            g.set(SET_BY_OWNER);
            assert_eq!(g.get(), SET_BY_OWNER);
        }
        stream(w, 2);
    };
    std::thread::scope(|s| {
        for w in 1..WRITERS {
            s.spawn(move || writer(w));
        }
        writer(0);
    });
    let (count, gauge, samples) = streams_model(SET_BY_OWNER);
    assert_eq!(c.get(), count);
    assert_eq!(g.get(), gauge);
    assert_histogram_holds(&h, &samples);
}

#[test]
fn every_handle_crosses_threads() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Registry>();
    send_sync::<Counter>();
    send_sync::<Gauge>();
    send_sync::<Histogram>();
    send_sync::<EventLog>();
    send_sync::<TraceLog>();
}
