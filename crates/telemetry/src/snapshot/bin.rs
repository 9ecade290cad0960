//! The `P4TS` binary codec for [`Snapshot`]s and [`SnapshotDelta`]s.
//! The layout and the strictness contract are documented once, in
//! [`crate::codec`].

use crate::codec::{ByteReader, ByteWriter};
use crate::delta::{HistogramDelta, SnapshotDelta};
use crate::events::{Event, EventRecord, Field};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, Sections, Snapshot};
use std::collections::BTreeSet;
use std::sync::Mutex;

pub use crate::codec::DecodeError;

/// File magic for single snapshot/delta blobs.
pub const MAGIC: [u8; 4] = *b"P4TS";
/// Current format version.
pub const VERSION: u16 = 1;
/// Kind byte (offset 6) of a full snapshot.
pub const KIND_SNAPSHOT: u8 = 0;
/// Kind byte (offset 6) of a delta.
pub const KIND_DELTA: u8 = 1;

/// Serializes a full snapshot.
pub fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    encode(&snap.sections())
}

/// Serializes a delta.
pub fn encode_delta(delta: &SnapshotDelta) -> Vec<u8> {
    encode(&delta.sections())
}

fn encode(s: &Sections<'_>) -> Vec<u8> {
    let mut w = ByteWriter::new(MAGIC, VERSION);
    w.u8(s.events_len.map_or(KIND_SNAPSHOT, |_| KIND_DELTA));
    w.seq(s.counters.len());
    for c in s.counters {
        w.str(&c.name);
        w.str(&c.label);
        w.u64(c.value);
    }
    w.seq(s.gauges.len());
    for g in s.gauges {
        w.str(&g.name);
        w.str(&g.label);
        w.u64(g.value as u64);
    }
    w.seq(s.histograms.len());
    for h in &s.histograms {
        w.str(h.name);
        w.str(h.label);
        h.stats.into_iter().take(h.width).for_each(|v| w.u64(v));
        w.seq(h.buckets.len());
        for &(bound, n) in h.buckets {
            w.u64(bound);
            w.u64(n);
        }
    }
    w.u64(s.events_overflowed);
    if let Some(len) = s.events_len {
        w.u64(len);
    }
    w.seq(s.events.len());
    for record in s.events {
        w.u64(record.t_ns);
        record.event.for_each_field(|_, v| match v {
            Field::U8(n) | Field::Enum(n, _) => w.u8(n),
            Field::U16(n) => w.u16(n),
            Field::U32(n) => w.u32(n),
            Field::U64(n) => w.u64(n),
            Field::Str(s) => w.str(s),
        });
    }
    w.finish()
}

/// Deserializes a full snapshot, rejecting trailing bytes.
pub fn decode_snapshot(buf: &[u8]) -> Result<Snapshot, DecodeError> {
    decode(buf, KIND_SNAPSHOT).map(|(snap, _)| snap)
}

/// Deserializes a delta, rejecting trailing bytes.
pub fn decode_delta(buf: &[u8]) -> Result<SnapshotDelta, DecodeError> {
    let (s, events_len) = decode(buf, KIND_DELTA)?;
    let histograms = s.histograms.into_iter().map(|h| HistogramDelta {
        name: h.name,
        label: h.label,
        count: h.count,
        sum: h.sum,
        min: h.min,
        max: h.max,
        buckets: h.buckets,
    });
    Ok(SnapshotDelta {
        counters: s.counters,
        gauges: s.gauges,
        histograms: histograms.collect(),
        events_overflowed: s.events_overflowed,
        events: s.events,
        events_len,
    })
}

/// Decodes either kind into a [`Snapshot`] plus `events_len`. A delta's
/// histograms come back with zero percentiles (the wire carries none)
/// and a snapshot's `events_len` is its event count. Each `seq` is told
/// its element's smallest encoding (empty strings, no buckets).
fn decode(buf: &[u8], want_kind: u8) -> Result<(Snapshot, u64), DecodeError> {
    let mut r = ByteReader::new(buf, MAGIC, VERSION)?;
    let kind = r.u8()?;
    if kind != want_kind {
        return Err(DecodeError::BadKind(kind));
    }
    let delta = kind == KIND_DELTA;
    let counters = r.seq(16, |r| {
        Ok(CounterSample {
            name: r.str()?,
            label: r.str()?,
            value: r.u64()?,
        })
    })?;
    let gauges = r.seq(16, |r| {
        Ok(GaugeSample {
            name: r.str()?,
            label: r.str()?,
            value: r.u64()? as i64,
        })
    })?;
    let histograms = r.seq(if delta { 44 } else { 68 }, |r| {
        let (name, label) = (r.str()?, r.str()?);
        let (count, sum, min, max) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let (p50, p90, p99) = if delta {
            (0, 0, 0)
        } else {
            (r.u64()?, r.u64()?, r.u64()?)
        };
        Ok(HistogramSample {
            name,
            label,
            count,
            sum,
            min,
            max,
            p50,
            p90,
            p99,
            buckets: r.seq(16, |r| Ok((r.u64()?, r.u64()?)))?,
        })
    })?;
    let events_overflowed = r.u64()?;
    let events_len = if delta { Some(r.u64()?) } else { None };
    let events = r.seq(11, |r| {
        Ok(EventRecord {
            t_ns: r.u64()?,
            event: Event::decode(r)?,
        })
    })?;
    r.finish()?;
    let events_len = events_len.unwrap_or(events.len() as u64);
    let snap = Snapshot {
        counters,
        gauges,
        histograms,
        events_overflowed,
        events,
    };
    Ok((snap, events_len))
}

/// Decodes a `&'static str` event field — the only way to hand one back
/// without changing the [`Event`] type is to leak it, so each distinct
/// string is interned and leaked once per process, however often (and in
/// however many hostile files) it recurs.
pub(crate) fn static_str(r: &mut ByteReader<'_>) -> Result<&'static str, DecodeError> {
    static INTERNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let s = r.str()?;
    // A panic elsewhere cannot leave the set half-updated: ignore poison.
    let mut interned = INTERNED.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(known) = interned.get(s.as_str()) {
        return Ok(known);
    }
    let leaked: &'static str = Box::leak(s.into_boxed_str());
    interned.insert(leaked);
    Ok(leaked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::{DropCause, RejectKind};

    fn busy_registry() -> Registry {
        let r = Registry::with_event_capacity(16);
        r.counter_with("auth_rejects", "peer2:ch0").add(13);
        r.counter("frames").add(70_000);
        r.gauge("outstanding").set(-4);
        for v in [1, 9, 1500, 70_000, u64::MAX / 2] {
            r.histogram_with("lat_ns", "s1").record(v);
        }
        r.record(
            5,
            Event::DigestRejected {
                peer: 2,
                channel: 0,
                reason: RejectKind::BadDigest,
            },
        );
        r.record(
            6,
            Event::ReplayDetected {
                peer: 2,
                channel: 1,
                last_accepted: 41,
                got: 7,
            },
        );
        r.record(
            7,
            Event::AlertEmitted {
                source: 3,
                reason: RejectKind::Replayed,
            },
        );
        r.record(8, Event::AlertSuppressed { source: 3 });
        r.record(
            9,
            Event::KeyDerived {
                switch: 1,
                port: 2,
                version: 7,
            },
        );
        r.record(
            10,
            Event::KexStep {
                node: 4,
                step: "adhkd_offer",
            },
        );
        r.record(
            11,
            Event::FrameDelivered {
                node: 5,
                port: 1,
                bytes: 128,
            },
        );
        r.record(
            12,
            Event::FrameDropped {
                node: 5,
                cause: DropCause::Tap,
            },
        );
        r.record(
            13,
            Event::RecircUsed {
                switch: 1,
                count: 2,
            },
        );
        r.record(
            14,
            Event::DefenceAction {
                peer: 2,
                channel: 0,
                action: "key_rollover",
            },
        );
        r
    }

    #[test]
    fn snapshot_roundtrips_exactly() {
        let snap = busy_registry().snapshot();
        let bytes = encode_snapshot(&snap);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_eq!(decoded, snap);
        // Re-encoding is byte-identical and the JSON views agree — the
        // property CI's codec-equivalence gate relies on.
        assert_eq!(encode_snapshot(&decoded), bytes);
        assert_eq!(decoded.to_json(), snap.to_json());
    }

    #[test]
    fn delta_roundtrips_exactly() {
        let r = busy_registry();
        let baseline = r.snapshot();
        r.counter("frames").add(500);
        r.histogram_with("lat_ns", "s1").record(3);
        r.record(20, Event::AlertSuppressed { source: 9 });
        let delta = r.delta_since(&baseline);
        let bytes = encode_delta(&delta);
        let decoded = decode_delta(&bytes).unwrap();
        assert_eq!(decoded, delta);
        assert_eq!(encode_delta(&decoded), bytes);
        assert_eq!(decoded.apply_to(&baseline), r.snapshot());
    }

    #[test]
    fn header_errors_are_typed() {
        let snap = busy_registry().snapshot();
        let bytes = encode_snapshot(&snap);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_snapshot(&bad), Err(DecodeError::BadMagic));
        let mut newer = bytes.clone();
        newer[4] = 0xFF;
        assert_eq!(
            decode_snapshot(&newer),
            Err(DecodeError::UnsupportedVersion(u16::from_le_bytes([
                0xFF, newer[5]
            ])))
        );
        // A delta blob is not a snapshot.
        let delta_bytes = encode_delta(&snap.delta_from(&snap));
        assert_eq!(decode_snapshot(&delta_bytes), Err(DecodeError::BadKind(1)));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let snap = busy_registry().snapshot();
        let bytes = encode_snapshot(&snap);
        for cut in [bytes.len() / 3, bytes.len() - 1] {
            assert_eq!(
                decode_snapshot(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            decode_snapshot(&extended),
            Err(DecodeError::TrailingBytes(3))
        );
    }

    #[test]
    fn unknown_event_strings_survive_decode() {
        let r = Registry::with_event_capacity(4);
        r.record(
            1,
            Event::KexStep {
                node: 1,
                step: "port_key_update",
            },
        );
        let snap = r.snapshot();
        let decoded = decode_snapshot(&encode_snapshot(&snap)).unwrap();
        assert_eq!(decoded, snap);
        match decoded.events[0].event {
            Event::KexStep { step, .. } => assert_eq!(step, "port_key_update"),
            ref other => panic!("unexpected event {other:?}"),
        }
    }
}
