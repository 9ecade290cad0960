//! The authentication engine: digest handling, replay defence and alert
//! rate limiting.
//!
//! This is the shared verification logic both endpoints of a P4Auth channel
//! run. The data-plane agent uses it inside the pipeline context; the
//! controller uses it directly.

use p4auth_primitives::idhash::IdMap;
use p4auth_primitives::mac::Mac;
use p4auth_primitives::Key64;
use p4auth_telemetry::{Counter, Registry, RejectKind};
use p4auth_wire::body::{Alert, AlertKind};
use p4auth_wire::header::Header;
use p4auth_wire::ids::{PortId, SeqNum, SwitchId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Why an incoming message was rejected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// Digest verification failed — content or origin was tampered with.
    BadDigest,
    /// No key installed / unknown key version for this channel.
    NoKey,
    /// Sequence number at or below the last accepted one (replay, §VIII).
    Replayed {
        /// Last accepted sequence number on this channel.
        last_accepted: SeqNum,
    },
    /// The bytes did not decode as a message at all.
    ///
    /// This is a *transport* failure, not an *authentication* failure:
    /// framing garbage carries no verifiable claim about its sender, so it
    /// must never count toward `auth_reject_bad_digest` (and must never
    /// trip the controller's adaptive defence loop).
    Malformed,
    /// The ingress channel is quarantined by the controller's adaptive
    /// defence; traffic is dropped until a fresh key is installed.
    Quarantined,
}

impl RejectReason {
    /// The telemetry-side kind for this rejection (drops the
    /// `last_accepted` payload).
    pub fn kind(self) -> RejectKind {
        match self {
            RejectReason::BadDigest => RejectKind::BadDigest,
            RejectReason::NoKey => RejectKind::NoKey,
            RejectReason::Replayed { .. } => RejectKind::Replayed,
            RejectReason::Malformed => RejectKind::Malformed,
            RejectReason::Quarantined => RejectKind::Quarantined,
        }
    }

    /// Whether this rejection is an *authentication* failure — i.e. a
    /// signal the adaptive defence loop may act on. Transport-level
    /// garbage ([`RejectReason::Malformed`]) and defence-imposed drops
    /// ([`RejectReason::Quarantined`]) are excluded: neither is evidence
    /// of key compromise on the channel.
    pub fn is_auth_failure(self) -> bool {
        matches!(
            self,
            RejectReason::BadDigest | RejectReason::NoKey | RejectReason::Replayed { .. }
        )
    }

    /// The alert this rejection raises toward the controller, or `None`
    /// when the rejection is not alert-worthy (malformed frames carry no
    /// authenticated claim to alert about; quarantine drops are the
    /// defence acting, not the attack being detected).
    pub fn to_alert(self, offending_seq: SeqNum, detail: u32) -> Option<Alert> {
        let kind = match self {
            RejectReason::BadDigest | RejectReason::NoKey => AlertKind::DigestMismatch,
            RejectReason::Replayed { .. } => AlertKind::SeqMismatch,
            RejectReason::Malformed | RejectReason::Quarantined => return None,
        };
        Some(Alert {
            kind,
            offending_seq,
            detail,
        })
    }
}

/// Tracks the last accepted sequence number per `(peer, channel)`,
/// enforcing strictly-increasing sequence numbers (the paper's replay
/// defence). The channel is the receiver-side port the message's key is
/// bound to: senders keep an independent sequence counter per key channel
/// (one per egress port plus the CPU channel), so the windows must be
/// independent too.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReplayWindow {
    last: IdMap<(SwitchId, PortId), SeqNum>,
}

impl ReplayWindow {
    /// Creates an empty window.
    pub fn new() -> Self {
        ReplayWindow::default()
    }

    /// Checks and records `seq` from `peer` on `channel`.
    ///
    /// # Errors
    ///
    /// Returns [`RejectReason::Replayed`] if `seq` does not advance past
    /// the last accepted value.
    pub fn check_and_advance(
        &mut self,
        peer: SwitchId,
        channel: PortId,
        seq: SeqNum,
    ) -> Result<(), RejectReason> {
        match self.last.get(&(peer, channel)) {
            Some(&last) if seq.value() <= last.value() => Err(RejectReason::Replayed {
                last_accepted: last,
            }),
            _ => {
                self.last.insert((peer, channel), seq);
                Ok(())
            }
        }
    }

    /// Last accepted sequence number from `peer` on `channel`.
    pub fn last_accepted(&self, peer: SwitchId, channel: PortId) -> Option<SeqNum> {
        self.last.get(&(peer, channel)).copied()
    }
}

/// Alert-rate limiter: the §VIII DoS mitigation. At most `max_alerts`
/// alerts are emitted per `period_ns`; excess failures are counted and a
/// single [`AlertKind::RateLimited`] alert marks the suppression.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AlertLimiter {
    max_alerts: u32,
    period_ns: u64,
    window_start_ns: u64,
    emitted_in_window: u32,
    suppressed_total: u64,
    rate_limit_alert_sent: bool,
}

/// What the limiter decides for one would-be alert.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AlertDecision {
    /// Emit the alert normally.
    Emit,
    /// Emit a single rate-limited marker alert instead.
    EmitRateLimitMarker,
    /// Suppress silently (already marked this window).
    Suppress,
}

impl AlertLimiter {
    /// Creates a limiter allowing `max_alerts` per `period_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `max_alerts` is 0 or `period_ns` is 0.
    pub fn new(max_alerts: u32, period_ns: u64) -> Self {
        assert!(
            max_alerts > 0 && period_ns > 0,
            "limiter parameters must be positive"
        );
        AlertLimiter {
            max_alerts,
            period_ns,
            window_start_ns: 0,
            emitted_in_window: 0,
            suppressed_total: 0,
            rate_limit_alert_sent: false,
        }
    }

    /// Registers an alert-worthy event at time `now_ns` and decides what to
    /// emit.
    pub fn on_alert(&mut self, now_ns: u64) -> AlertDecision {
        if now_ns.saturating_sub(self.window_start_ns) >= self.period_ns {
            self.window_start_ns = now_ns;
            self.emitted_in_window = 0;
            self.rate_limit_alert_sent = false;
        }
        if self.emitted_in_window < self.max_alerts {
            self.emitted_in_window += 1;
            AlertDecision::Emit
        } else if !self.rate_limit_alert_sent {
            self.rate_limit_alert_sent = true;
            self.suppressed_total += 1;
            AlertDecision::EmitRateLimitMarker
        } else {
            self.suppressed_total += 1;
            AlertDecision::Suppress
        }
    }

    /// Total alerts suppressed across all windows.
    pub fn suppressed_total(&self) -> u64 {
        self.suppressed_total
    }
}

/// Pre-registered telemetry counters for one verification endpoint,
/// labeled by a scope string (`"S3"`, `"controller"`, ...) so every
/// endpoint in a simulation keeps independent series under shared family
/// names.
///
/// Both the agent and the controller build one of these when a registry
/// is attached and call [`AuthMetrics::record_verify`] /
/// [`AuthMetrics::record_alert`] next to their existing bookkeeping; with
/// no registry attached the instrumentation is a single `Option` branch.
#[derive(Clone)]
pub struct AuthMetrics {
    verify_ok: Arc<Counter>,
    reject_bad_digest: Arc<Counter>,
    reject_no_key: Arc<Counter>,
    reject_replayed: Arc<Counter>,
    reject_malformed: Arc<Counter>,
    reject_quarantined: Arc<Counter>,
    replay_advances: Arc<Counter>,
    alerts_emitted: Arc<Counter>,
    alerts_rate_limit_markers: Arc<Counter>,
    alerts_suppressed: Arc<Counter>,
}

impl AuthMetrics {
    /// Registers (or re-attaches to) the auth counter families for
    /// `scope` in `registry`.
    pub fn register(registry: &Registry, scope: &str) -> Self {
        AuthMetrics {
            verify_ok: registry.counter_with("auth_verify_ok", scope),
            reject_bad_digest: registry.counter_with("auth_reject_bad_digest", scope),
            reject_no_key: registry.counter_with("auth_reject_no_key", scope),
            reject_replayed: registry.counter_with("auth_reject_replayed", scope),
            reject_malformed: registry.counter_with("auth_reject_malformed", scope),
            reject_quarantined: registry.counter_with("auth_reject_quarantined", scope),
            replay_advances: registry.counter_with("auth_replay_advances", scope),
            alerts_emitted: registry.counter_with("alerts_emitted", scope),
            alerts_rate_limit_markers: registry.counter_with("alerts_rate_limit_markers", scope),
            alerts_suppressed: registry.counter_with("alerts_suppressed", scope),
        }
    }

    /// Accounts one verification outcome. Successful verifications also
    /// count a replay-window advance (the window only moves on accept).
    pub fn record_verify(&self, outcome: &Result<(), RejectReason>) {
        match outcome {
            Ok(()) => {
                self.verify_ok.inc();
                self.replay_advances.inc();
            }
            Err(RejectReason::BadDigest) => self.reject_bad_digest.inc(),
            Err(RejectReason::NoKey) => self.reject_no_key.inc(),
            Err(RejectReason::Replayed { .. }) => self.reject_replayed.inc(),
            Err(RejectReason::Malformed) => self.reject_malformed.inc(),
            Err(RejectReason::Quarantined) => self.reject_quarantined.inc(),
        }
    }

    /// Accounts one rate-limiter decision.
    pub fn record_alert(&self, decision: AlertDecision) {
        match decision {
            AlertDecision::Emit => self.alerts_emitted.inc(),
            AlertDecision::EmitRateLimitMarker => self.alerts_rate_limit_markers.inc(),
            AlertDecision::Suppress => self.alerts_suppressed.inc(),
        }
    }
}

/// Verifies a received frame against a key and a replay window in one
/// step; `header` is the frame's decoded header. Returns the key that
/// verified it.
///
/// Order matters: the digest is checked first, over the bytes that arrived
/// (an attacker must not be able to probe sequence state with forged
/// messages), then the sequence number advances.
///
/// # Errors
///
/// Returns the [`RejectReason`] on failure; on success the window advances.
pub fn verify_and_advance(
    mac: &dyn Mac,
    key: Option<Key64>,
    window: &mut ReplayWindow,
    channel: PortId,
    frame: &[u8],
    header: &Header,
) -> Result<Key64, RejectReason> {
    let key = key.ok_or(RejectReason::NoKey)?;
    if !p4auth_wire::verify_frame(mac, key, frame) {
        return Err(RejectReason::BadDigest);
    }
    window.check_and_advance(header.sender, channel, header.seq_num)?;
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_primitives::mac::HalfSipHashMac;
    use p4auth_wire::body::RegisterOp;
    use p4auth_wire::ids::RegId;
    use p4auth_wire::Message;

    fn mac() -> HalfSipHashMac {
        HalfSipHashMac::default()
    }

    fn msg(seq: u32) -> Message {
        Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(seq),
            RegisterOp::read_req(RegId::new(1), 0),
        )
    }

    #[test]
    fn accepts_valid_sequence() {
        let key = Key64::new(5);
        let mut w = ReplayWindow::new();
        for seq in 1..=5 {
            let m = msg(seq).sealed(&mac(), key);
            verify_and_advance(
                &mac(),
                Some(key),
                &mut w,
                PortId::CPU,
                &m.encode(),
                m.header(),
            )
            .unwrap();
        }
        assert_eq!(
            w.last_accepted(SwitchId::CONTROLLER, PortId::CPU),
            Some(SeqNum::new(5))
        );
    }

    #[test]
    fn rejects_replay() {
        let key = Key64::new(5);
        let mut w = ReplayWindow::new();
        let m = msg(3).sealed(&mac(), key);
        verify_and_advance(
            &mac(),
            Some(key),
            &mut w,
            PortId::CPU,
            &m.encode(),
            m.header(),
        )
        .unwrap();
        // Same message again: replay.
        let err = verify_and_advance(
            &mac(),
            Some(key),
            &mut w,
            PortId::CPU,
            &m.encode(),
            m.header(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            RejectReason::Replayed {
                last_accepted: SeqNum::new(3)
            }
        );
        // Older seq: also replay.
        let old = msg(2).sealed(&mac(), key);
        assert!(verify_and_advance(
            &mac(),
            Some(key),
            &mut w,
            PortId::CPU,
            &old.encode(),
            old.header()
        )
        .is_err());
    }

    #[test]
    fn gaps_are_allowed() {
        // Lost messages must not wedge the channel: strictly-increasing,
        // not strictly-consecutive.
        let key = Key64::new(5);
        let mut w = ReplayWindow::new();
        for seq in [1, 10] {
            let m = msg(seq).sealed(&mac(), key);
            verify_and_advance(
                &mac(),
                Some(key),
                &mut w,
                PortId::CPU,
                &m.encode(),
                m.header(),
            )
            .unwrap();
        }
    }

    #[test]
    fn rejects_bad_digest_before_touching_window() {
        let key = Key64::new(5);
        let mut w = ReplayWindow::new();
        let forged = msg(1); // never sealed
        let err = verify_and_advance(
            &mac(),
            Some(key),
            &mut w,
            PortId::CPU,
            &forged.encode(),
            forged.header(),
        )
        .unwrap_err();
        assert_eq!(err, RejectReason::BadDigest);
        assert_eq!(w.last_accepted(SwitchId::CONTROLLER, PortId::CPU), None);
    }

    #[test]
    fn rejects_when_no_key() {
        let mut w = ReplayWindow::new();
        let m = msg(1).sealed(&mac(), Key64::new(1));
        let err = verify_and_advance(&mac(), None, &mut w, PortId::CPU, &m.encode(), m.header())
            .unwrap_err();
        assert_eq!(err, RejectReason::NoKey);
    }

    #[test]
    fn per_peer_windows_are_independent() {
        let mut w = ReplayWindow::new();
        w.check_and_advance(SwitchId::new(1), PortId::CPU, SeqNum::new(5))
            .unwrap();
        w.check_and_advance(SwitchId::new(2), PortId::CPU, SeqNum::new(1))
            .unwrap();
        assert!(w
            .check_and_advance(SwitchId::new(1), PortId::CPU, SeqNum::new(5))
            .is_err());
        w.check_and_advance(SwitchId::new(2), PortId::CPU, SeqNum::new(2))
            .unwrap();
        // Same peer, different channel: independent window.
        w.check_and_advance(SwitchId::new(1), PortId::new(3), SeqNum::new(1))
            .unwrap();
    }

    #[test]
    fn reject_reasons_map_to_alert_kinds() {
        let a = RejectReason::BadDigest.to_alert(SeqNum::new(4), 7).unwrap();
        assert_eq!(a.kind, AlertKind::DigestMismatch);
        assert_eq!(a.offending_seq, SeqNum::new(4));
        assert_eq!(a.detail, 7);
        let a = RejectReason::Replayed {
            last_accepted: SeqNum::new(1),
        }
        .to_alert(SeqNum::new(1), 0)
        .unwrap();
        assert_eq!(a.kind, AlertKind::SeqMismatch);
        let a = RejectReason::NoKey.to_alert(SeqNum::new(0), 0).unwrap();
        assert_eq!(a.kind, AlertKind::DigestMismatch);
        // Transport garbage and defence drops are not alert-worthy.
        assert!(RejectReason::Malformed
            .to_alert(SeqNum::new(0), 0)
            .is_none());
        assert!(RejectReason::Quarantined
            .to_alert(SeqNum::new(0), 0)
            .is_none());
    }

    #[test]
    fn auth_failure_taxonomy_excludes_transport_and_defence_rejects() {
        assert!(RejectReason::BadDigest.is_auth_failure());
        assert!(RejectReason::NoKey.is_auth_failure());
        assert!(RejectReason::Replayed {
            last_accepted: SeqNum::new(1)
        }
        .is_auth_failure());
        assert!(!RejectReason::Malformed.is_auth_failure());
        assert!(!RejectReason::Quarantined.is_auth_failure());
    }

    #[test]
    fn limiter_emits_up_to_cap_then_marks_then_suppresses() {
        let mut l = AlertLimiter::new(3, 1_000);
        assert_eq!(l.on_alert(0), AlertDecision::Emit);
        assert_eq!(l.on_alert(10), AlertDecision::Emit);
        assert_eq!(l.on_alert(20), AlertDecision::Emit);
        assert_eq!(l.on_alert(30), AlertDecision::EmitRateLimitMarker);
        assert_eq!(l.on_alert(40), AlertDecision::Suppress);
        assert_eq!(l.suppressed_total(), 2);
    }

    #[test]
    fn limiter_window_resets() {
        let mut l = AlertLimiter::new(1, 1_000);
        assert_eq!(l.on_alert(0), AlertDecision::Emit);
        assert_eq!(l.on_alert(1), AlertDecision::EmitRateLimitMarker);
        // New window.
        assert_eq!(l.on_alert(1_000), AlertDecision::Emit);
        assert_eq!(l.on_alert(1_001), AlertDecision::EmitRateLimitMarker);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn limiter_rejects_zero_cap() {
        let _ = AlertLimiter::new(0, 100);
    }

    #[test]
    fn auth_metrics_count_outcomes_per_reason() {
        let registry = Registry::new();
        let m = AuthMetrics::register(&registry, "S1");
        m.record_verify(&Ok(()));
        m.record_verify(&Ok(()));
        m.record_verify(&Err(RejectReason::BadDigest));
        m.record_verify(&Err(RejectReason::NoKey));
        m.record_verify(&Err(RejectReason::Replayed {
            last_accepted: SeqNum::new(3),
        }));
        m.record_verify(&Err(RejectReason::Malformed));
        m.record_verify(&Err(RejectReason::Quarantined));
        m.record_alert(AlertDecision::Emit);
        m.record_alert(AlertDecision::EmitRateLimitMarker);
        m.record_alert(AlertDecision::Suppress);
        m.record_alert(AlertDecision::Suppress);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("auth_verify_ok", "S1"), Some(2));
        assert_eq!(snap.counter("auth_replay_advances", "S1"), Some(2));
        assert_eq!(snap.counter("auth_reject_bad_digest", "S1"), Some(1));
        assert_eq!(snap.counter("auth_reject_no_key", "S1"), Some(1));
        assert_eq!(snap.counter("auth_reject_replayed", "S1"), Some(1));
        assert_eq!(snap.counter("auth_reject_malformed", "S1"), Some(1));
        assert_eq!(snap.counter("auth_reject_quarantined", "S1"), Some(1));
        assert_eq!(snap.counter("alerts_emitted", "S1"), Some(1));
        assert_eq!(snap.counter("alerts_rate_limit_markers", "S1"), Some(1));
        assert_eq!(snap.counter("alerts_suppressed", "S1"), Some(2));
    }

    #[test]
    fn reject_reason_maps_to_telemetry_kind() {
        assert_eq!(RejectReason::BadDigest.kind(), RejectKind::BadDigest);
        assert_eq!(RejectReason::NoKey.kind(), RejectKind::NoKey);
        assert_eq!(
            RejectReason::Replayed {
                last_accepted: SeqNum::new(1)
            }
            .kind(),
            RejectKind::Replayed
        );
        assert_eq!(RejectReason::Malformed.kind(), RejectKind::Malformed);
        assert_eq!(RejectReason::Quarantined.kind(), RejectKind::Quarantined);
    }
}
