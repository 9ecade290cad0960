//! Hostile-bytes properties for the `P4TL` timeline decoder (the `P4TS`
//! and `P4TR` ones live in `telemetry/tests/hostile_bytes.rs`): arbitrary
//! bytes and mutated valid streams never panic, `Ok(t)` implies
//! `t.to_bin() == input`, and no more entries are reserved than the
//! input has bytes.

use p4auth_netsim::Timeline;
use p4auth_telemetry::{Event, Registry};
use proptest::prelude::*;

/// A three-capture timeline whose deltas carry every section.
fn timeline_bytes() -> Vec<u8> {
    let r = Registry::with_event_capacity(8);
    let baseline = r.snapshot();
    let mut captures = Vec::new();
    for t in [40u64, 90, 140] {
        r.counter("ticks").inc();
        r.gauge("depth").set(-(t as i64));
        r.histogram("lat").record(t);
        r.record(t, Event::AlertSuppressed { source: 1 });
        captures.push((t, r.snapshot()));
    }
    Timeline::from_captures(50, baseline, captures, r.snapshot()).to_bin()
}

fn check(input: &[u8]) {
    if let Ok(timeline) = Timeline::from_bin(input) {
        assert_eq!(timeline.to_bin(), input, "Ok must mean canonical");
        assert!(timeline.entries.capacity() <= input.len(), "over-reserved");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(input in proptest::collection::vec(any::<u8>(), 0..256)) {
        check(&input);
        check(&[&b"P4TL\x01\x00"[..], &input].concat());
    }

    #[test]
    fn mutated_timelines_fail_closed(how: u8, at: usize, with: u32) {
        let mut bytes = timeline_bytes();
        let at = at % bytes.len();
        match how % 4 {
            0 => bytes[at] ^= 1 << (with % 8),
            1 => bytes.truncate(at),
            // Inflate a length field: the baseline block's (offset 14) half
            // the time, four arbitrary bytes otherwise.
            2 => {
                let at = if with.is_multiple_of(2) { 14 } else { at };
                let end = (at + 4).min(bytes.len());
                bytes[at..end].copy_from_slice(&(with | 0x8000_0000).to_le_bytes()[..end - at]);
            }
            _ => bytes.extend(std::iter::repeat_n(with as u8, 1 + with as usize % 16)),
        }
        check(&bytes);
    }
}

#[test]
fn the_valid_stream_decodes() {
    let bytes = timeline_bytes();
    let timeline = Timeline::from_bin(&bytes).expect("valid stream");
    assert_eq!(timeline.entries.len(), 3);
    assert_eq!(timeline.reconstruct(), timeline.final_snapshot);
}
