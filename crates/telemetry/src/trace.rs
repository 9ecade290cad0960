//! Deterministic causal tracing: spans with simulation-clock timestamps
//! and IDs derived from `(kind, sim-time, source, per-source seq)` —
//! never a wall clock, never an allocation address — so two runs of the
//! same workload produce byte-identical traces on any engine.
//!
//! ## Model
//!
//! A *span* is a `[start_ns, end_ns]` interval attributed to a `source`
//! (a node id, a controller replica, or a harness pseudo-source) with a
//! [`SpanKind`]. Spans form trees: a root span has `parent_id == 0` and
//! `trace_id == span_id`; children inherit the root's `trace_id`. An
//! *instant* is a zero-width span.
//!
//! ## Determinism discipline
//!
//! * **IDs** are a splitmix-style hash of `(kind, start_ns, source,
//!   seq)`. `seq` is a per-source counter, so a source that emits two
//!   spans at the same instant still gets distinct ids.
//! * **Canonical order** for export is `(start_ns, source, seq)`.
//!   `(source, seq)` is unique per record, so the order is total, and
//!   it is engine-invariant because per-source emission order is the
//!   per-source simulation order on every engine.
//! * **Bounded buffers**: the ring holds exactly its bound, in chunks
//!   that are each allocated once and never copied; once full, each span
//!   overwrites the oldest in place and the drop is counted. It stores a
//!   span in 64 bytes, not the 72 of a [`SpanRecord`]: the id is left
//!   out and derived again from the ingredients above when the records
//!   are read. A trace that dropped spans is a truncated
//!   forest (an evicted parent leaves orphans [`validate_well_formed`]
//!   rejects), which is why the campaign configs assert
//!   `trace_spans_dropped == 0`.
//!
//! Export formats: Chrome trace-format JSON ([`chrome_trace_json`],
//! loadable in Perfetto) and the compact `P4TR` binary
//! ([`encode_trace`] / [`decode_trace`]), a sibling of the `P4TS`
//! snapshot codec with the same exact-roundtrip contract.

use crate::codec::{ByteReader, ByteWriter, DecodeError, JsonWriter, Layout};
use crate::ring::Ring;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// What a span measures. Discriminants are stable wire values (`P4TR`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum SpanKind {
    /// A campaign / scenario phase (harness root span).
    CampaignPhase = 0,
    /// A frame delivered to a node.
    FrameDeliver = 1,
    /// A tap acted on a frame (dropped or modified it).
    FrameTap = 2,
    /// A packet consumed pipeline recirculations.
    FrameRecirculate = 3,
    /// A digest verified successfully.
    DigestVerify = 4,
    /// A digest (or replay/quarantine) rejection.
    DigestReject = 5,
    /// An orchestration daemon step wrote to the state table (`arg_a`:
    /// how many value-changing writes).
    StateDbWrite = 6,
    /// An orchestration daemon step found the state table changed since
    /// its previous step (`arg_a`: by how many writes; `arg_b`: the
    /// rollover epoch the table holds, 0 before the first).
    DaemonWake = 7,
    /// A KMP/ADHKD offer left the controller.
    KmpOffer = 8,
    /// A KMP/ADHKD answer arrived at the controller.
    KmpAnswer = 9,
    /// A key was installed / rolled.
    KeyInstall = 10,
    /// A quarantine was lifted by a fresh key.
    QuarantineLift = 11,
    /// One defence mitigation, detection to installed key (root).
    Mitigation = 12,
    /// Mitigation stage: crossing detected → action issued.
    MitigationDetect = 13,
    /// Mitigation stage: decision published. The core applies the
    /// mitigation in the call that decided it, so this is an instant at
    /// the detection time.
    MitigationPublish = 14,
    /// Mitigation stage: key-exchange round trips on the wire.
    MitigationKmp = 15,
    /// Mitigation stage: answer arrival → key active.
    MitigationInstall = 16,
    /// One bulk-rollover epoch across a partition (root).
    RolloverEpoch = 17,
    /// A port-key exchange leg.
    PortKeyExchange = 18,
}

/// Every kind with its stable snake_case name, indexed by wire value.
const KINDS: [(SpanKind, &str); 19] = [
    (SpanKind::CampaignPhase, "campaign_phase"),
    (SpanKind::FrameDeliver, "frame_deliver"),
    (SpanKind::FrameTap, "frame_tap"),
    (SpanKind::FrameRecirculate, "frame_recirculate"),
    (SpanKind::DigestVerify, "digest_verify"),
    (SpanKind::DigestReject, "digest_reject"),
    (SpanKind::StateDbWrite, "statedb_write"),
    (SpanKind::DaemonWake, "daemon_wake"),
    (SpanKind::KmpOffer, "kmp_offer"),
    (SpanKind::KmpAnswer, "kmp_answer"),
    (SpanKind::KeyInstall, "key_install"),
    (SpanKind::QuarantineLift, "quarantine_lift"),
    (SpanKind::Mitigation, "mitigation"),
    (SpanKind::MitigationDetect, "mitigation_detect"),
    (SpanKind::MitigationPublish, "mitigation_publish"),
    (SpanKind::MitigationKmp, "mitigation_kmp"),
    (SpanKind::MitigationInstall, "mitigation_install"),
    (SpanKind::RolloverEpoch, "rollover_epoch"),
    (SpanKind::PortKeyExchange, "port_key_exchange"),
];

impl SpanKind {
    /// Stable snake_case name used in Chrome-trace JSON.
    pub fn as_str(self) -> &'static str {
        KINDS[self as usize].1
    }

    /// Decodes a `P4TR` kind byte.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        KINDS.get(v as usize).map(|&(kind, _)| kind)
    }
}

/// One finished span. Fixed-width fields only, so the `P4TR` record
/// layout is trivial and the canonical sort never allocates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// The trace this span belongs to (root's `span_id`).
    pub trace_id: u64,
    /// This span's id (never 0).
    pub span_id: u64,
    /// Parent span id; 0 marks a root.
    pub parent_id: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Emitting source (node id / replica / harness pseudo-source).
    pub source: u16,
    /// Span start, simulation clock (ns).
    pub start_ns: u64,
    /// Span end, simulation clock (ns); `== start_ns` for instants.
    pub end_ns: u64,
    /// Per-source emission sequence (assigned at span start).
    pub seq: u64,
    /// Kind-specific argument (e.g. peer id, epoch, reject reason).
    pub arg_a: u64,
    /// Second kind-specific argument (e.g. channel, latency).
    pub arg_b: u64,
}

impl SpanRecord {
    /// The canonical export key: engine-invariant total order.
    pub fn sort_key(&self) -> (u64, u16, u64) {
        (self.start_ns, self.source, self.seq)
    }
}

/// A started-but-not-finished span: a `Copy` handle carrying everything
/// [`TraceLog::end`] needs to build the record. Nothing is buffered
/// until the span ends, so an abandoned handle costs nothing.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    kind: SpanKind,
    source: u16,
    start_ns: u64,
    seq: u64,
}

impl OpenSpan {
    /// The trace id children should inherit.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// This span's id (for use as a child's `parent_id`).
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The span's start time (ns, simulation clock).
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// The finished span as the ring stores it; an end before the start
    /// is clamped to it.
    fn finish(self, end_ns: u64, arg_a: u64, arg_b: u64) -> StoredSpan {
        StoredSpan {
            trace_id: self.trace_id,
            parent_id: self.parent_id,
            kind: self.kind,
            source: self.source,
            start_ns: self.start_ns,
            end_ns: end_ns.max(self.start_ns),
            seq: self.seq,
            arg_a,
            arg_b,
        }
    }
}

/// A finished span as [`TraceLog`]'s ring keeps it: a [`SpanRecord`]
/// without its `span_id`, in 64 bytes instead of 72. The id is a pure
/// function of fields kept here ([`mix_id`] of kind, start, source and
/// seq), so [`StoredSpan::record`] derives the same id the span was
/// handed out with, for a child whose root has since been evicted too.
#[derive(Clone, Copy, Debug)]
struct StoredSpan {
    trace_id: u64,
    parent_id: u64,
    kind: SpanKind,
    source: u16,
    start_ns: u64,
    end_ns: u64,
    seq: u64,
    arg_a: u64,
    arg_b: u64,
}

impl StoredSpan {
    fn record(&self) -> SpanRecord {
        SpanRecord {
            trace_id: self.trace_id,
            span_id: mix_id(self.kind, self.start_ns, self.source, self.seq),
            parent_id: self.parent_id,
            kind: self.kind,
            source: self.source,
            start_ns: self.start_ns,
            end_ns: self.end_ns,
            seq: self.seq,
            arg_a: self.arg_a,
            arg_b: self.arg_b,
        }
    }
}

/// SplitMix64 finalizer over the deterministic id ingredients.
fn mix_id(kind: SpanKind, start_ns: u64, source: u16, seq: u64) -> u64 {
    let mut z = start_ns
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((kind as u64) << 48)
        .wrapping_add((source as u64) << 24)
        .wrapping_add(seq);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 0 is the "no parent" sentinel; keep real ids out of it.
    z | 1
}

/// Sources below this index [`SeqTable::dense`] directly: switch and host
/// node ids, which is where every per-frame span comes from.
const DENSE_SOURCES: usize = 1024;

/// The next per-source sequence number, for sources spread over the whole
/// `u16`: nodes count up from 1, controllers sit at `0xFE00+`, campaign
/// harnesses at `0xFFFF`. A table indexed by the full `u16` would be
/// 512 KiB; this one is eight bytes per low source plus a few pairs.
#[derive(Debug, Default)]
struct SeqTable {
    /// Indexed by source; grown to the highest low source seen.
    dense: Vec<u64>,
    /// Every other source, sorted by source.
    sparse: Vec<(u16, u64)>,
}

impl SeqTable {
    fn next(&mut self, source: u16) -> u64 {
        let i = usize::from(source);
        let slot = if i < DENSE_SOURCES {
            if i >= self.dense.len() {
                self.dense.resize(i + 1, 0);
            }
            &mut self.dense[i]
        } else {
            let i = match self.sparse.binary_search_by_key(&source, |&(s, _)| s) {
                Ok(i) => i,
                Err(i) => {
                    self.sparse.insert(i, (source, 0));
                    i
                }
            };
            &mut self.sparse[i].1
        };
        let seq = *slot;
        *slot += 1;
        seq
    }
}

#[derive(Debug, Default)]
struct TraceLogInner {
    ring: Ring<StoredSpan>,
    next_seq: SeqTable,
}

impl TraceLogInner {
    /// Takes `source`'s next sequence number and opens a span with it:
    /// a root, or a child of `parent`.
    fn open(
        &mut self,
        parent: Option<&OpenSpan>,
        kind: SpanKind,
        start_ns: u64,
        source: u16,
    ) -> OpenSpan {
        let seq = self.next_seq.next(source);
        let span_id = mix_id(kind, start_ns, source, seq);
        OpenSpan {
            trace_id: parent.map_or(span_id, |p| p.trace_id),
            span_id,
            parent_id: parent.map_or(0, |p| p.span_id),
            kind,
            source,
            start_ns,
            seq,
        }
    }
}

/// A bounded drop-oldest ring of finished spans with per-source
/// sequence counters. Capacity 0 (the default) disables recording —
/// every call is a branch-and-return, mirroring [`crate::EventLog`].
/// Every recording call takes the one mutex once: an instant opens and
/// finishes its span under the same acquisition.
#[derive(Debug, Default)]
pub struct TraceLog {
    capacity: usize,
    inner: Mutex<TraceLogInner>,
}

impl TraceLog {
    /// A log that records nothing (capacity 0).
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// A log keeping the most recent `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            capacity,
            inner: Mutex::default(),
        }
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured capacity (0 when disabled).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceLogInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a root span. Returns `None` when disabled.
    pub fn start(&self, kind: SpanKind, start_ns: u64, source: u16) -> Option<OpenSpan> {
        self.enabled()
            .then(|| self.lock().open(None, kind, start_ns, source))
    }

    /// Opens a child span under `parent`. Returns `None` when disabled.
    pub fn child(
        &self,
        parent: &OpenSpan,
        kind: SpanKind,
        start_ns: u64,
        source: u16,
    ) -> Option<OpenSpan> {
        self.enabled()
            .then(|| self.lock().open(Some(parent), kind, start_ns, source))
    }

    /// Finishes `span` at `end_ns`, buffering the record. Clamps a
    /// backwards end to the start (spans never have negative width).
    pub fn end(&self, span: OpenSpan, end_ns: u64, arg_a: u64, arg_b: u64) {
        if self.enabled() {
            self.lock()
                .ring
                .push(self.capacity, span.finish(end_ns, arg_a, arg_b));
        }
    }

    /// Records a zero-width root span.
    pub fn instant(&self, kind: SpanKind, t_ns: u64, source: u16, arg_a: u64, arg_b: u64) {
        self.instant_under(None, kind, t_ns, source, arg_a, arg_b);
    }

    /// Records a zero-width child span under `parent`.
    pub fn instant_in(
        &self,
        parent: &OpenSpan,
        kind: SpanKind,
        t_ns: u64,
        source: u16,
        arg_a: u64,
        arg_b: u64,
    ) {
        self.instant_under(Some(parent), kind, t_ns, source, arg_a, arg_b);
    }

    fn instant_under(
        &self,
        parent: Option<&OpenSpan>,
        kind: SpanKind,
        t_ns: u64,
        source: u16,
        arg_a: u64,
        arg_b: u64,
    ) {
        if self.enabled() {
            let mut inner = self.lock();
            let span = inner.open(parent, kind, t_ns, source);
            inner
                .ring
                .push(self.capacity, span.finish(t_ns, arg_a, arg_b));
        }
    }

    /// Spans dropped to the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.lock().ring.dropped()
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether the log holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the buffered spans in emission order.
    pub fn records(&self) -> Vec<SpanRecord> {
        let inner = self.lock();
        let mut records = Vec::with_capacity(inner.ring.len());
        for slice in inner.ring.slices() {
            records.extend(slice.iter().map(StoredSpan::record));
        }
        records
    }

    /// The buffered spans in canonical `(start_ns, source, seq)` order —
    /// the engine-invariant export order.
    pub fn sorted_records(&self) -> Vec<SpanRecord> {
        let mut records = self.records();
        records.sort_unstable_by_key(SpanRecord::sort_key);
        records
    }
}

/// Nanoseconds as Chrome-trace microseconds (`ts`/`dur` fields) with
/// integer math only: `ns/1000` whole µs plus exactly three fractional
/// digits. No floats anywhere near the byte-diffed output.
struct Micros(u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1_000, self.0 % 1_000)
    }
}

/// Renders spans (already in canonical order) as Chrome trace-format
/// JSON: one complete (`"ph":"X"`) event per span, `pid` 0, `tid` =
/// source, ids in hex. Loadable by Perfetto / `chrome://tracing`.
/// Spans are assumed well-formed (`end_ns >= start_ns`), which both
/// [`TraceLog::end`] and [`decode_trace`] guarantee.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut w = JsonWriter::new(": ");
    w.obj(Layout::INLINE);
    w.field_str("displayTimeUnit", "ns");
    w.key("traceEvents");
    w.arr(Layout::lines("\n  ", "\n"));
    for r in records {
        w.obj(Layout::INLINE);
        w.field_str("name", r.kind.as_str());
        w.field_str("ph", "X");
        w.field("pid", 0);
        w.field("tid", r.source);
        w.field("ts", Micros(r.start_ns));
        w.field("dur", Micros(r.end_ns - r.start_ns));
        w.key("args");
        w.obj(Layout::INLINE);
        for (key, id) in [
            ("trace", r.trace_id),
            ("span", r.span_id),
            ("parent", r.parent_id),
        ] {
            w.field(key, format_args!("\"{id:016x}\""));
        }
        w.field("seq", r.seq);
        w.field("a", r.arg_a);
        w.field("b", r.arg_b);
        w.end();
        w.end();
    }
    w.end();
    w.end();
    w.finish()
}

/// `P4TR` magic bytes.
pub const TRACE_MAGIC: [u8; 4] = *b"P4TR";
/// `P4TR` format version.
pub const TRACE_VERSION: u16 = 1;

/// Encodes spans (callers pass them in canonical order) as a `P4TR`
/// payload; the layout is documented in [`crate::codec`].
pub fn encode_trace(records: &[SpanRecord], dropped: u64) -> Vec<u8> {
    let mut w = ByteWriter::new(TRACE_MAGIC, TRACE_VERSION);
    w.u64(dropped);
    w.seq(records.len());
    for r in records {
        w.u64(r.trace_id);
        w.u64(r.span_id);
        w.u64(r.parent_id);
        w.u8(r.kind as u8);
        w.u16(r.source);
        for v in [r.start_ns, r.end_ns, r.seq, r.arg_a, r.arg_b] {
            w.u64(v);
        }
    }
    w.finish()
}

/// Decodes a `P4TR` payload back into `(records, dropped)`. Exact
/// inverse of [`encode_trace`]: re-encoding the result reproduces the
/// input byte for byte, trailing bytes are an error, and so is a span
/// that ends before it starts ([`DecodeError::EndBeforeStart`]) —
/// consumers subtract the two.
pub fn decode_trace(bytes: &[u8]) -> Result<(Vec<SpanRecord>, u64), DecodeError> {
    let mut r = ByteReader::new(bytes, TRACE_MAGIC, TRACE_VERSION)?;
    let dropped = r.u64()?;
    let records = r.seq(67, |r| {
        let (trace_id, span_id, parent_id) = (r.u64()?, r.u64()?, r.u64()?);
        let kind = r.u8()?;
        let span = SpanRecord {
            trace_id,
            span_id,
            parent_id,
            kind: SpanKind::from_u8(kind).ok_or(DecodeError::BadTag(kind))?,
            source: r.u16()?,
            start_ns: r.u64()?,
            end_ns: r.u64()?,
            seq: r.u64()?,
            arg_a: r.u64()?,
            arg_b: r.u64()?,
        };
        if span.end_ns < span.start_ns {
            return Err(DecodeError::EndBeforeStart);
        }
        Ok(span)
    })?;
    r.finish()?;
    Ok((records, dropped))
}

/// Structural trace validation, shared by the well-formedness proptest
/// and the repro gate: every span's interval nests inside its parent's,
/// every referenced parent exists in the same trace, and every trace
/// has exactly one root. Returns the first violation as text.
pub fn validate_well_formed(records: &[SpanRecord]) -> Result<(), String> {
    let by_id: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.span_id, r)).collect();
    if by_id.len() != records.len() {
        return Err("duplicate span ids".into());
    }
    let mut roots: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if r.end_ns < r.start_ns {
            return Err(format!("span {:016x} ends before it starts", r.span_id));
        }
        if r.parent_id == 0 {
            if r.trace_id != r.span_id {
                return Err(format!("root {:016x} with foreign trace id", r.span_id));
            }
            *roots.entry(r.trace_id).or_insert(0) += 1;
            continue;
        }
        let Some(parent) = by_id.get(&r.parent_id) else {
            return Err(format!(
                "span {:016x} references missing parent {:016x}",
                r.span_id, r.parent_id
            ));
        };
        if parent.trace_id != r.trace_id {
            return Err(format!("span {:016x} crosses traces", r.span_id));
        }
        if r.start_ns < parent.start_ns || r.end_ns > parent.end_ns {
            return Err(format!(
                "span {:016x} [{}, {}] escapes parent [{}, {}]",
                r.span_id, r.start_ns, r.end_ns, parent.start_ns, parent.end_ns
            ));
        }
    }
    for r in records {
        let root_count = roots.get(&r.trace_id).copied().unwrap_or(0);
        if root_count != 1 {
            return Err(format!("trace {:016x} has {root_count} roots", r.trace_id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<SpanRecord> {
        let log = TraceLog::with_capacity(16);
        let root = log.start(SpanKind::Mitigation, 100, 7).unwrap();
        log.instant_in(&root, SpanKind::MitigationDetect, 100, 7, 1, 0);
        let kmp = log.child(&root, SpanKind::MitigationKmp, 120, 7).unwrap();
        log.end(kmp, 900, 0, 0);
        log.end(root, 1_000, 3, 0);
        log.instant(SpanKind::FrameDeliver, 50, 2, 64, 0);
        log.sorted_records()
    }

    #[test]
    fn kind_table_is_indexed_by_wire_value() {
        for (i, (kind, name)) in KINDS.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{name} is out of place");
            assert_eq!(SpanKind::from_u8(i as u8), Some(*kind));
            assert_eq!(kind.as_str(), *name);
        }
        assert_eq!(SpanKind::from_u8(KINDS.len() as u8), None);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = TraceLog::disabled();
        assert!(!log.enabled());
        assert!(log.start(SpanKind::CampaignPhase, 0, 0).is_none());
        log.instant(SpanKind::FrameDeliver, 1, 1, 0, 0);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = TraceLog::with_capacity(8);
        let b = TraceLog::with_capacity(8);
        for log in [&a, &b] {
            log.instant(SpanKind::DigestReject, 500, 3, 9, 1);
            log.instant(SpanKind::DigestReject, 500, 3, 9, 1);
        }
        let (ra, rb) = (a.records(), b.records());
        assert_eq!(ra, rb, "same inputs, same ids");
        assert_ne!(ra[0].span_id, ra[1].span_id, "seq splits same-instant ids");
        assert!(ra.iter().all(|r| r.span_id != 0));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let log = TraceLog::with_capacity(2);
        for t in 0..3 {
            log.instant(SpanKind::FrameDeliver, t, 1, 0, 0);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.records()[0].start_ns, 1);
    }

    #[test]
    fn a_stored_span_is_64_bytes_and_reads_back_the_ids_handed_out() {
        assert_eq!(size_of::<StoredSpan>(), 64);
        assert_eq!(size_of::<SpanRecord>(), 72);
        // Capacity 3: the root ends first and its third child's end
        // evicts it, so the ring holds three children of a missing root.
        let log = TraceLog::with_capacity(3);
        let root = log.start(SpanKind::Mitigation, 100, 7).unwrap();
        let kids: Vec<OpenSpan> = (0..3)
            .map(|i| {
                log.child(&root, SpanKind::MitigationKmp, 110 + i, 7)
                    .unwrap()
            })
            .collect();
        log.end(root, 500, 0, 0);
        for kid in &kids {
            log.end(*kid, 400, 0, 0);
        }
        assert_eq!(log.dropped(), 1, "the root was evicted");
        let records = log.records();
        let ids: Vec<u64> = records.iter().map(|r| r.span_id).collect();
        let handed_out: Vec<u64> = kids.iter().map(OpenSpan::span_id).collect();
        assert_eq!(ids, handed_out);
        for r in &records {
            assert_eq!((r.trace_id, r.parent_id), (root.trace_id(), root.span_id()));
        }
    }

    #[test]
    fn sorted_order_is_independent_of_emission_order() {
        // Same spans, emitted in different interleavings, sort to the
        // same canonical stream.
        let a = TraceLog::with_capacity(8);
        a.instant(SpanKind::FrameDeliver, 10, 1, 0, 0);
        a.instant(SpanKind::FrameDeliver, 10, 2, 0, 0);
        let b = TraceLog::with_capacity(8);
        b.instant(SpanKind::FrameDeliver, 10, 2, 0, 0);
        b.instant(SpanKind::FrameDeliver, 10, 1, 0, 0);
        assert_eq!(a.sorted_records(), b.sorted_records());
    }

    #[test]
    fn trace_roundtrips_exactly() {
        let records = sample_records();
        let bytes = encode_trace(&records, 5);
        let (decoded, dropped) = decode_trace(&bytes).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(dropped, 5);
        assert_eq!(encode_trace(&decoded, dropped), bytes, "re-encode exact");
        assert_eq!(
            chrome_trace_json(&decoded),
            chrome_trace_json(&records),
            "JSON renders identically from decoded records"
        );
    }

    #[test]
    fn decode_rejects_bad_headers() {
        assert_eq!(decode_trace(b"P4T"), Err(DecodeError::Truncated));
        assert_eq!(decode_trace(b"P4TS\x01\x00"), Err(DecodeError::BadMagic));
        let mut bytes = encode_trace(&[], 0);
        bytes[0] = b'X';
        assert_eq!(decode_trace(&bytes), Err(DecodeError::BadMagic));
        let mut bytes = encode_trace(&[], 0);
        bytes[4] = 9;
        assert_eq!(
            decode_trace(&bytes),
            Err(DecodeError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn decode_rejects_truncation_trailing_and_bad_kind() {
        let records = sample_records();
        let bytes = encode_trace(&records, 0);
        assert_eq!(
            decode_trace(&bytes[..bytes.len() - 1]),
            Err(DecodeError::Truncated)
        );
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(decode_trace(&extended), Err(DecodeError::TrailingBytes(1)));
        let mut bad = bytes;
        // First record's kind byte sits after the 18-byte header + 24 id
        // bytes.
        bad[18 + 24] = 0xEE;
        assert_eq!(decode_trace(&bad), Err(DecodeError::BadTag(0xEE)));
    }

    #[test]
    fn decode_rejects_a_span_that_ends_before_it_starts() {
        // `chrome_trace_json` subtracts the two; at the parent commit this
        // 85-byte file decoded `Ok` and rendered `"dur": 18446744073709550.626`.
        let mut span = sample_records()[0];
        span.end_ns = span.start_ns - 1;
        let bytes = encode_trace(&[span], 0);
        assert_eq!(bytes.len(), 85);
        assert_eq!(decode_trace(&bytes), Err(DecodeError::EndBeforeStart));
    }

    #[test]
    fn chrome_json_uses_integer_microseconds() {
        let records = sample_records();
        let json = chrome_trace_json(&records);
        assert!(json.contains("\"ts\": 0.100"), "100ns start: {json}");
        assert!(json.contains("\"dur\": 0.900"), "900ns span: {json}");
        assert!(json.contains("\"name\": \"mitigation\""));
        assert!(!json.contains("e-"), "no scientific notation");
    }

    #[test]
    fn well_formedness_catches_violations() {
        let records = sample_records();
        assert_eq!(validate_well_formed(&records), Ok(()));

        let mut escaped = records.clone();
        for r in &mut escaped {
            if r.kind == SpanKind::MitigationKmp {
                r.end_ns = 2_000; // past the root's end
            }
        }
        assert!(validate_well_formed(&escaped).is_err());

        let mut orphan = records.clone();
        for r in &mut orphan {
            if r.kind == SpanKind::MitigationDetect {
                r.parent_id = 0xdead;
            }
        }
        assert!(validate_well_formed(&orphan).is_err());

        let mut two_roots = records;
        let twin = SpanRecord {
            span_id: 0x1234,
            parent_id: 0,
            ..two_roots[0]
        };
        let twin = SpanRecord {
            trace_id: two_roots
                .iter()
                .find(|r| r.kind == SpanKind::Mitigation)
                .unwrap()
                .trace_id,
            ..twin
        };
        two_roots.push(SpanRecord {
            span_id: 0x1235,
            ..twin
        });
        assert!(validate_well_formed(&two_roots).is_err());
    }
}
