//! Hostile-bytes properties for every artifact decoder in this crate:
//! arbitrary bytes, and valid encodings mutated by bit-flip, truncation,
//! length-field inflation and an appended tail, never panic; `Ok(v)`
//! implies `encode(v) == input` (the formats are canonical); and no
//! decoded `Vec` holds more capacity than the input had bytes, i.e. a
//! count field cannot make the decoder reserve what the file cannot back.
//! (`P4TL` has the same test in `netsim/tests/timeline_hostile.rs`.)

use p4auth_telemetry::codec::{parse_json, DecodeError, MAX_JSON_DEPTH};
use p4auth_telemetry::snapshot::bin::{
    decode_delta, decode_snapshot, encode_delta, encode_snapshot,
};
use p4auth_telemetry::trace::{chrome_trace_json, decode_trace, encode_trace};
use p4auth_telemetry::{DropCause, Event, Registry, RejectKind, Snapshot, SpanKind};
use proptest::prelude::*;

/// A registry that has seen every metric kind and every event variant,
/// and its state a little later (for a non-trivial delta).
fn snapshots() -> (Snapshot, Snapshot) {
    let r = Registry::with_capacities(16, 16);
    r.counter_with("auth_rejects", "peer2:ch0").add(13);
    r.gauge("outstanding").set(-4);
    for v in [1, 9, 1500, u64::MAX / 2] {
        r.histogram_with("lat_ns", "s1").record(v);
    }
    let (peer, channel, node, switch, source) = (2, 1, 5, 1, 3);
    let reason = RejectKind::Replayed;
    let events = [
        Event::DigestRejected {
            peer,
            channel,
            reason,
        },
        Event::ReplayDetected {
            peer,
            channel,
            last_accepted: 41,
            got: 7,
        },
        Event::AlertEmitted { source, reason },
        Event::AlertSuppressed { source },
        Event::KeyDerived {
            switch,
            port: 2,
            version: 7,
        },
        Event::KexStep {
            node,
            step: "adhkd_offer",
        },
        Event::FrameDelivered {
            node,
            port: 1,
            bytes: 128,
        },
        Event::FrameDropped {
            node,
            cause: DropCause::Tap,
        },
        Event::RecircUsed { switch, count: 2 },
        Event::DefenceAction {
            peer,
            channel,
            action: "key_rollover",
        },
    ];
    for (t, event) in events.into_iter().enumerate() {
        r.record(t as u64, event);
    }
    let before = r.snapshot();
    r.counter("frames").add(500);
    r.histogram_with("lat_ns", "s1").record(3);
    r.record(20, Event::AlertSuppressed { source: 9 });
    (before, r.snapshot())
}

fn trace_bytes() -> Vec<u8> {
    let r = Registry::with_capacities(0, 16);
    let log = r.trace();
    let root = log.start(SpanKind::Mitigation, 100, 7).unwrap();
    log.instant_in(&root, SpanKind::MitigationDetect, 100, 7, 1, 0);
    log.end(root, 1_000, 3, 0);
    log.instant(SpanKind::FrameDeliver, 50, 2, 64, 0);
    encode_trace(&log.sorted_records(), 5)
}

/// One of the four hostile edits, chosen and placed by `(how, at, with)`.
/// Inflation overwrites four bytes with a huge little-endian count — at
/// `first_count`, the format's first `seq` header, half the time.
fn mutate(valid: &[u8], first_count: usize, (how, at, with): (u8, usize, u32)) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let at = at % bytes.len();
    match how % 4 {
        0 => bytes[at] ^= 1 << (with % 8),
        1 => bytes.truncate(at),
        2 => {
            let at = if with.is_multiple_of(2) {
                first_count
            } else {
                at
            };
            let end = (at + 4).min(bytes.len());
            bytes[at..end].copy_from_slice(&(with | 0x8000_0000).to_le_bytes()[..end - at]);
        }
        _ => bytes.extend(std::iter::repeat_n(with as u8, 1 + with as usize % 16)),
    }
    bytes
}

/// The largest capacity among a value's section vectors and its
/// histograms' bucket vectors.
fn max_capacity(sections: [usize; 4], buckets: impl Iterator<Item = usize>) -> usize {
    buckets.chain(sections).max().unwrap_or(0)
}

/// The three properties, for one decoder on one input.
fn check<T>(
    input: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
    encode: impl Fn(&T) -> Vec<u8>,
    capacity: impl Fn(&T) -> usize,
) {
    if let Ok(value) = decode(input) {
        assert_eq!(encode(&value), input, "Ok must mean canonical");
        assert!(capacity(&value) <= input.len(), "over-reserved");
    }
}

fn check_all(input: &[u8]) {
    check(input, decode_snapshot, encode_snapshot, |s| {
        let sections = [
            s.counters.capacity(),
            s.gauges.capacity(),
            s.histograms.capacity(),
            s.events.capacity(),
        ];
        max_capacity(sections, s.histograms.iter().map(|h| h.buckets.capacity()))
    });
    check(input, decode_delta, encode_delta, |d| {
        let sections = [
            d.counters.capacity(),
            d.gauges.capacity(),
            d.histograms.capacity(),
            d.events.capacity(),
        ];
        max_capacity(sections, d.histograms.iter().map(|h| h.buckets.capacity()))
    });
    check(
        input,
        decode_trace,
        |(records, dropped)| encode_trace(records, *dropped),
        |(records, _)| records.capacity(),
    );
    let _ = parse_json(&String::from_utf8_lossy(input));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(input in proptest::collection::vec(any::<u8>(), 0..256)) {
        check_all(&input);
        // The same noise behind each valid header reaches the body parsers.
        for header in [&b"P4TS\x01\x00\x00"[..], b"P4TS\x01\x00\x01", b"P4TR\x01\x00"] {
            check_all(&[header, &input].concat());
        }
    }

    #[test]
    fn mutated_snapshots_and_deltas_fail_closed(edit in (any::<u8>(), any::<usize>(), any::<u32>())) {
        let (before, after) = snapshots();
        check_all(&mutate(&encode_snapshot(&after), 7, edit));
        check_all(&mutate(&encode_delta(&after.delta_from(&before)), 7, edit));
    }

    #[test]
    fn mutated_traces_fail_closed(edit in (any::<u8>(), any::<usize>(), any::<u32>())) {
        check_all(&mutate(&trace_bytes(), 14, edit));
    }

    #[test]
    fn mutated_json_never_panics(edit in (any::<u8>(), any::<usize>(), any::<u32>()), depth in 0usize..100_000) {
        let (before, after) = snapshots();
        let (records, _) = decode_trace(&trace_bytes()).unwrap();
        for json in [after.to_json(), after.delta_from(&before).to_json(), chrome_trace_json(&records)] {
            prop_assert!(parse_json(&json).is_ok(), "every emitter writes what the reader reads");
            let _ = parse_json(&String::from_utf8_lossy(&mutate(json.as_bytes(), 0, edit)));
        }
        // Nesting past the cap is an error, not a stack overflow.
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        prop_assert_eq!(parse_json(&nested).is_ok(), depth > 0 && depth <= MAX_JSON_DEPTH);
    }
}

#[test]
fn valid_encodings_pass_the_same_checks() {
    let (before, after) = snapshots();
    let delta = after.delta_from(&before);
    assert_eq!(decode_snapshot(&encode_snapshot(&after)), Ok(after.clone()));
    assert_eq!(decode_delta(&encode_delta(&delta)), Ok(delta));
    assert!(decode_trace(&trace_bytes()).is_ok());
    // A count the file cannot back is refused from the header alone.
    let mut inflated = trace_bytes();
    inflated.truncate(18);
    inflated[14..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(decode_trace(&inflated), Err(DecodeError::Truncated));
}
