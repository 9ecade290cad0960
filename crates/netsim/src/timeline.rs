//! Sim-clock driven telemetry timelines: periodic delta capture during a
//! run, with deterministic output across engines.
//!
//! [`crate::Simulator::set_export_interval`] installs an
//! `ExportRecorder` that snapshots the attached registry every
//! `interval_ns` of *simulated* time. Capture happens on the event loop's
//! pop path: whenever the next popped event carries the clock to or past
//! a grid boundary `k × interval`, the registry is snapshotted *before*
//! that event is processed — so each capture is exactly "all effects of
//! events strictly before the boundary", regardless of how the run is
//! chunked (`run_until` deadlines) or which scheduler drains it. That is
//! the invariant that makes timelines bit-identical across the heap and
//! calendar schedulers.
//!
//! The recorder keeps the first snapshot as the baseline and emits a
//! [`SnapshotDelta`] per boundary where anything changed; quiet
//! boundaries are skipped (an empty delta reconstructs to the same
//! state, so consumers lose nothing). `baseline + Σ deltas` always
//! equals the final full snapshot — [`Timeline::reconstruct`] checks
//! exactly that in tests.

use p4auth_telemetry::codec::{ByteReader, ByteWriter, DecodeError, JsonWriter, Layout};
use p4auth_telemetry::snapshot::bin::{
    decode_delta, decode_snapshot, encode_delta, encode_snapshot,
};
use p4auth_telemetry::{Registry, Snapshot, SnapshotDelta};
use std::sync::Arc;

/// File magic for serialized timelines (single snapshots use `P4TS`).
pub const TIMELINE_MAGIC: [u8; 4] = *b"P4TL";
/// Current timeline stream version.
pub const TIMELINE_VERSION: u16 = 1;

/// One emitted delta, stamped with the grid boundary it captures up to
/// (all effects of events strictly before `t_ns`).
#[derive(Clone, PartialEq, Debug)]
pub struct TimelineEntry {
    /// The grid boundary, in sim-ns.
    pub t_ns: u64,
    /// Changes since the previous emitted entry (or the baseline).
    pub delta: SnapshotDelta,
}

/// A recorded telemetry timeline: baseline, the non-empty deltas at grid
/// boundaries, and the final full snapshot.
#[derive(Clone, PartialEq, Debug)]
pub struct Timeline {
    /// The capture grid spacing, in sim-ns.
    pub interval_ns: u64,
    /// Full snapshot at recording start.
    pub baseline: Snapshot,
    /// Non-empty deltas, boundary-stamped, ascending.
    pub entries: Vec<TimelineEntry>,
    /// Full snapshot at recording end.
    pub final_snapshot: Snapshot,
}

impl Timeline {
    /// Builds a timeline from boundary-stamped *full* snapshots by
    /// diffing consecutive states, dropping empty deltas.
    pub fn from_captures(
        interval_ns: u64,
        baseline: Snapshot,
        captures: Vec<(u64, Snapshot)>,
        final_snapshot: Snapshot,
    ) -> Self {
        let mut entries = Vec::new();
        let mut prev = &baseline;
        for (t_ns, snap) in &captures {
            let delta = snap.delta_from(prev);
            if !delta.is_empty() {
                entries.push(TimelineEntry { t_ns: *t_ns, delta });
                prev = snap;
            }
        }
        Timeline {
            interval_ns,
            baseline,
            entries,
            final_snapshot,
        }
    }

    /// Applies every delta to the baseline; equal to
    /// [`Timeline::final_snapshot`] by construction.
    pub fn reconstruct(&self) -> Snapshot {
        let mut state = self.baseline.clone();
        for entry in &self.entries {
            state = entry.delta.apply_to(&state);
        }
        state
    }

    /// Serializes the timeline as a JSON object (deterministic, like
    /// [`Snapshot::to_json`]).
    pub fn to_json(&self) -> String {
        const LINES: Layout = Layout::lines("\n", "\n");
        let mut w = JsonWriter::new(": ");
        w.obj(LINES);
        w.field("interval_ns", self.interval_ns);
        w.key("baseline");
        self.baseline.write_json(&mut w);
        w.key("entries");
        w.arr(LINES);
        for entry in &self.entries {
            w.obj(Layout::INLINE);
            w.field("t_ns", entry.t_ns);
            w.key("delta");
            entry.delta.write_json(&mut w);
            w.end();
        }
        w.end();
        w.key("final");
        self.final_snapshot.write_json(&mut w);
        w.end();
        w.finish()
    }

    /// Serializes the timeline as a `P4TL` stream (layout in
    /// [`p4auth_telemetry::codec`]).
    pub fn to_bin(&self) -> Vec<u8> {
        let mut w = ByteWriter::new(TIMELINE_MAGIC, TIMELINE_VERSION);
        w.u64(self.interval_ns);
        w.block(&encode_snapshot(&self.baseline));
        w.seq(self.entries.len());
        for entry in &self.entries {
            w.u64(entry.t_ns);
            w.block(&encode_delta(&entry.delta));
        }
        w.block(&encode_snapshot(&self.final_snapshot));
        w.finish()
    }

    /// Deserializes a [`Timeline::to_bin`] stream, rejecting trailing
    /// bytes.
    pub fn from_bin(buf: &[u8]) -> Result<Timeline, DecodeError> {
        let mut r = ByteReader::new(buf, TIMELINE_MAGIC, TIMELINE_VERSION)?;
        let interval_ns = r.u64()?;
        let baseline = decode_snapshot(r.block()?)?;
        let entries = r.seq(12, |r| {
            Ok(TimelineEntry {
                t_ns: r.u64()?,
                delta: decode_delta(r.block()?)?,
            })
        })?;
        let final_snapshot = decode_snapshot(r.block()?)?;
        r.finish()?;
        Ok(Timeline {
            interval_ns,
            baseline,
            entries,
            final_snapshot,
        })
    }
}

/// Live capture state installed by
/// [`crate::Simulator::set_export_interval`]. Holds its own handle on
/// the registry so captures need no access to the simulator's telemetry
/// internals.
pub(crate) struct ExportRecorder {
    registry: Arc<Registry>,
    interval_ns: u64,
    /// The next unexpired grid boundary (`k × interval`, k ≥ 1).
    next_ns: u64,
    baseline: Snapshot,
    /// State at the last capture (emitted or not), for dedup.
    last: Snapshot,
    /// Boundary-stamped full snapshots where state changed.
    captures: Vec<(u64, Snapshot)>,
}

impl ExportRecorder {
    /// Starts recording: the baseline is the registry's state *now*
    /// (call after topology boot so setup-time counts land in the
    /// baseline, not the first window).
    pub(crate) fn new(registry: Arc<Registry>, interval_ns: u64) -> Self {
        assert!(interval_ns > 0, "export interval must be positive");
        let baseline = registry.snapshot();
        ExportRecorder {
            registry,
            interval_ns,
            next_ns: interval_ns,
            last: baseline.clone(),
            baseline,
            captures: Vec::new(),
        }
    }

    /// Called with each popped event's timestamp *before* it is
    /// processed: captures every boundary the clock is about to cross.
    /// After this, `next_ns` is strictly greater than every processed
    /// event's time — which is what makes end-of-run flushes exact.
    #[inline]
    pub(crate) fn advance_to(&mut self, at_ns: u64) {
        while self.next_ns <= at_ns {
            let boundary = self.next_ns;
            self.capture(boundary);
            self.next_ns += self.interval_ns;
        }
    }

    fn capture(&mut self, t_ns: u64) {
        let snap = self.registry.snapshot();
        if snap != self.last {
            debug_assert!(
                self.captures.last().is_none_or(|(t, _)| *t <= t_ns),
                "captures must be time-ordered"
            );
            self.captures.push((t_ns, snap.clone()));
            self.last = snap;
        }
    }

    /// Ends recording at sim-time `to_ns`: captures any boundaries still
    /// pending at or before it, then a tail capture stamped `to_ns`
    /// itself (so effects after the last grid boundary are not lost).
    pub(crate) fn flush(&mut self, to_ns: u64) {
        self.advance_to(to_ns);
        self.capture(to_ns);
    }

    /// Consumes the recorder into a finished [`Timeline`].
    pub(crate) fn into_timeline(self) -> Timeline {
        let fin = self.registry.snapshot();
        Timeline::from_captures(self.interval_ns, self.baseline, self.captures, fin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_telemetry::Event;

    #[test]
    fn recorder_captures_boundaries_and_flushes_tail() {
        let registry = Arc::new(Registry::with_event_capacity(16));
        let c = registry.counter("hits");
        c.add(5); // pre-recording state → baseline
        let mut rec = ExportRecorder::new(registry.clone(), 1_000);
        // Event at t=250 (no boundary crossed yet), then t=1_500 crossing
        // the 1_000 boundary, then t=3_700 crossing 2_000 and 3_000.
        rec.advance_to(250);
        c.inc();
        rec.advance_to(1_500); // captures state-before-1_000 = baseline+1
        c.add(10);
        rec.advance_to(3_700); // 2_000 and 3_000: only 2_000 changed
        registry.record(3_800, Event::AlertSuppressed { source: 1 });
        rec.flush(4_000); // boundary 4_000 then tail (tail deduped)
        let tl = rec.into_timeline();
        assert_eq!(tl.baseline.counter("hits", ""), Some(5));
        let stamps: Vec<u64> = tl.entries.iter().map(|e| e.t_ns).collect();
        assert_eq!(stamps, vec![1_000, 2_000, 4_000]);
        assert_eq!(tl.reconstruct(), tl.final_snapshot);
        assert_eq!(tl.final_snapshot.counter("hits", ""), Some(16));
    }

    #[test]
    fn quiet_boundaries_are_skipped() {
        let registry = Arc::new(Registry::new());
        registry.counter("c").inc();
        let mut rec = ExportRecorder::new(registry.clone(), 100);
        rec.advance_to(10_000); // 100 boundaries, nothing changed
        rec.flush(10_000);
        let tl = rec.into_timeline();
        assert!(tl.entries.is_empty());
        assert_eq!(tl.reconstruct(), tl.final_snapshot);
    }

    #[test]
    fn timeline_binary_roundtrip() {
        let registry = Arc::new(Registry::with_event_capacity(8));
        let mut rec = ExportRecorder::new(registry.clone(), 50);
        for t in [40u64, 90, 140] {
            registry.counter("ticks").inc();
            registry.histogram("lat").record(t);
            rec.advance_to(t);
        }
        rec.flush(150);
        let tl = rec.into_timeline();
        let bytes = tl.to_bin();
        let decoded = Timeline::from_bin(&bytes).unwrap();
        assert_eq!(decoded, tl);
        assert_eq!(decoded.to_bin(), bytes);
        assert_eq!(decoded.to_json(), tl.to_json());
        // Corrupt magic / trailing garbage fail typed.
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert_eq!(Timeline::from_bin(&bad), Err(DecodeError::BadMagic));
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            Timeline::from_bin(&long),
            Err(DecodeError::TrailingBytes(1))
        );
        assert_eq!(
            Timeline::from_bin(&bytes[..bytes.len() - 2]),
            Err(DecodeError::Truncated)
        );
    }
}
