//! Adaptive defence (the "closed loop" on top of the P4Auth reject
//! stream).
//!
//! The controller already *detects* forged digests and replays — every
//! failed verification increments an [`p4auth_core::auth::AuthMetrics`]
//! counter and lands in the typed event log. This module turns those
//! detections into *mitigations*: it keeps a sliding-window reject rate
//! per `(peer, channel)` and, when the rate crosses a configured
//! threshold, emits a [`MitigationAction`] that the controller translates
//! into a key rollover (Fig. 14 b/d) or a channel quarantine.
//!
//! Design points:
//!
//! - **Hysteresis.** A mitigation fires when `reject_threshold` auth
//!   failures land inside one `window_ns`; a single stray reject (a
//!   corrupted frame, one replayed packet) never triggers anything.
//!   While a mitigation is in flight the channel's signals are ignored,
//!   so one threshold crossing yields exactly one action no matter how
//!   fast the flood is.
//! - **Escalation.** The first crossing rolls the key. If the channel
//!   crosses the threshold again within `escalation_window_ns` of a
//!   completed mitigation — i.e. rolling the key did not stop the
//!   attack — the channel is quarantined: traffic on it is dropped and
//!   counted until a fresh key is installed. Key-exchange traffic is
//!   exempt, because the key-management protocol is the exit path.
//! - **Only authentication failures count.** Transport-malformed frames
//!   ([`p4auth_core::auth::RejectReason::Malformed`]) carry no verified
//!   sender claim and must not drive mitigation — an attacker who can
//!   inject garbage could otherwise force key churn on a healthy
//!   channel. The controller feeds this module only `BadDigest` and
//!   `Replayed` rejects (plus agent alerts, which are authenticated).
//!
//! The state machine is pure (no clock, no I/O, no telemetry): the caller
//! passes simulated time and one signal in and gets at most one action
//! back, which keeps it unit-testable and deterministic — and means the
//! defence works whether or not anything is observing the controller.

use p4auth_wire::ids::{PortId, SwitchId};
use std::collections::{HashMap, VecDeque};

/// Configuration for the adaptive defence loop.
#[derive(Clone, Copy, Debug)]
pub struct DefenceConfig {
    /// Width of the sliding reject window, in nanoseconds of simulated
    /// time.
    pub window_ns: u64,
    /// Number of auth-failure signals inside one window that triggers a
    /// mitigation. Must be at least 2 so a single stray reject never
    /// fires (hysteresis).
    pub reject_threshold: u32,
    /// How long after a completed mitigation a re-crossing counts as
    /// "the rollover did not help" and escalates to quarantine.
    pub escalation_window_ns: u64,
    /// Capacity of the controller's port-action queue (the one queue
    /// between a crossing and the wire: CPU-channel actions are applied
    /// at once, DP-DP port actions wait for the harness). A harness that
    /// never drains it must not let a sustained flood grow it without
    /// bound: when full, the *oldest* action is evicted (its channel's
    /// in-flight mitigation is aborted so the channel is not wedged) and
    /// counted in
    /// [`ControllerStats::defence_actions_dropped`](crate::ControllerStats::defence_actions_dropped).
    pub pending_capacity: usize,
}

impl Default for DefenceConfig {
    fn default() -> Self {
        DefenceConfig {
            // 10 ms of simulated time: long enough to cover several
            // controller round trips (~0.5 ms each in the default
            // harness), short enough that two unrelated rejects a
            // second apart never accumulate.
            window_ns: 10_000_000,
            reject_threshold: 4,
            escalation_window_ns: 50_000_000,
            pending_capacity: 64,
        }
    }
}

/// What a [`MitigationAction`] asks the controller to do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MitigationKind {
    /// Roll the channel's key (local key for the CPU channel, port key
    /// for a DP-DP channel).
    KeyRollover,
    /// Quarantine the channel — drop and count its traffic (key
    /// exchange exempt) — and roll the key so the quarantine can lift.
    Quarantine,
}

impl MitigationKind {
    /// Stable lower-case name (used as the telemetry `action` label).
    pub fn as_str(self) -> &'static str {
        match self {
            MitigationKind::KeyRollover => "key_rollover",
            MitigationKind::Quarantine => "quarantine",
        }
    }
}

/// One mitigation the defence loop decided on; applied by the controller
/// (CPU channels) or the harness (DP-DP port channels).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MitigationAction {
    /// The peer whose channel crossed the threshold.
    pub peer: SwitchId,
    /// The offending channel (`PortId::CPU` for the C-DP channel).
    pub channel: PortId,
    /// What to do about it.
    pub kind: MitigationKind,
    /// Simulated time the threshold crossing was detected, for the
    /// detection-to-mitigation latency histogram.
    pub detected_at_ns: u64,
}

/// A mitigation that completed (fresh key installed on the channel).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompletedMitigation {
    /// The mitigation that was in flight.
    pub kind: MitigationKind,
    /// Detection-to-mitigation latency in simulated nanoseconds.
    pub latency_ns: u64,
}

/// Per-channel sliding-window state.
#[derive(Debug, Default)]
struct ChannelState {
    /// Timestamps of recent auth-failure signals, oldest first; pruned
    /// to `window_ns`.
    rejects: VecDeque<u64>,
    /// The mitigation currently in flight (awaiting a key install), if
    /// any. While set, further signals on the channel are ignored.
    in_flight: Option<(MitigationKind, u64)>,
    /// Simulated time the most recent mitigation completed.
    last_completed_ns: Option<u64>,
    /// Whether the channel is currently quarantined.
    quarantined: bool,
}

/// The defence loop's state: one sliding window and escalation rung per
/// `(peer, channel)`.
#[derive(Debug)]
pub struct DefenceState {
    config: DefenceConfig,
    channels: HashMap<(SwitchId, PortId), ChannelState>,
}

impl DefenceState {
    /// Creates a defence loop with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `reject_threshold < 2` (a threshold of 1 would defeat
    /// the hysteresis guarantee) or `window_ns == 0`.
    pub fn new(config: DefenceConfig) -> Self {
        assert!(
            config.reject_threshold >= 2,
            "reject_threshold must be >= 2 (single rejects must not trigger mitigation)"
        );
        assert!(config.window_ns > 0, "window_ns must be positive");
        DefenceState {
            config,
            channels: HashMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DefenceConfig {
        &self.config
    }

    /// Records one auth-failure signal (a `BadDigest`/`Replayed` reject
    /// observed by the controller, or an authenticated agent alert) on
    /// `(peer, channel)` at simulated time `now_ns`. Returns the
    /// [`MitigationAction`] to apply when this signal is the one that
    /// crosses the threshold; the caller either applies it or calls
    /// [`DefenceState::abort`].
    pub fn record_signal(
        &mut self,
        now_ns: u64,
        peer: SwitchId,
        channel: PortId,
    ) -> Option<MitigationAction> {
        let config = self.config;
        let state = self.channels.entry((peer, channel)).or_default();
        if state.in_flight.is_some() {
            // A mitigation is already underway; one crossing, one action.
            return None;
        }
        state.rejects.push_back(now_ns);
        while let Some(&oldest) = state.rejects.front() {
            if now_ns.saturating_sub(oldest) > config.window_ns {
                state.rejects.pop_front();
            } else {
                break;
            }
        }
        if (state.rejects.len() as u32) < config.reject_threshold {
            return None;
        }
        // Decide the rung of the escalation ladder.
        let kind = match state.last_completed_ns {
            Some(done) if now_ns.saturating_sub(done) <= config.escalation_window_ns => {
                MitigationKind::Quarantine
            }
            _ => MitigationKind::KeyRollover,
        };
        state.rejects.clear();
        state.in_flight = Some((kind, now_ns));
        if kind == MitigationKind::Quarantine {
            state.quarantined = true;
        }
        Some(MitigationAction {
            peer,
            channel,
            kind,
            detected_at_ns: now_ns,
        })
    }

    /// Notifies the loop that a fresh key was installed on
    /// `(peer, channel)` at `now_ns` (any install — defence-initiated or
    /// the periodic §VI-C rollover). Lifts a quarantine and, if a
    /// mitigation was in flight, returns it with its
    /// detection-to-mitigation latency.
    pub fn on_key_installed(
        &mut self,
        now_ns: u64,
        peer: SwitchId,
        channel: PortId,
    ) -> Option<CompletedMitigation> {
        let state = self.channels.get_mut(&(peer, channel))?;
        state.quarantined = false;
        let (kind, detected_at_ns) = state.in_flight.take()?;
        state.last_completed_ns = Some(now_ns);
        // A fresh key invalidates everything the attacker forged so far;
        // start the next window clean.
        state.rejects.clear();
        Some(CompletedMitigation {
            kind,
            latency_ns: now_ns.saturating_sub(detected_at_ns),
        })
    }

    /// Abandons an in-flight mitigation on `(peer, channel)` (e.g. the
    /// controller could not issue the rollover because the channel has
    /// no local key yet). Lifts any quarantine so the channel is not
    /// wedged.
    pub fn abort(&mut self, peer: SwitchId, channel: PortId) {
        if let Some(state) = self.channels.get_mut(&(peer, channel)) {
            state.in_flight = None;
            state.quarantined = false;
        }
    }

    /// Whether `(peer, channel)` is currently quarantined.
    pub fn is_quarantined(&self, peer: SwitchId, channel: PortId) -> bool {
        self.channels
            .get(&(peer, channel))
            .is_some_and(|s| s.quarantined)
    }

    /// Whether a mitigation is in flight on `(peer, channel)`.
    pub fn mitigation_in_flight(&self, peer: SwitchId, channel: PortId) -> bool {
        self.channels
            .get(&(peer, channel))
            .is_some_and(|s| s.in_flight.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DefenceConfig {
        DefenceConfig {
            window_ns: 1_000,
            reject_threshold: 3,
            escalation_window_ns: 10_000,
            ..DefenceConfig::default()
        }
    }

    const S1: SwitchId = SwitchId::new(1);
    const S2: SwitchId = SwitchId::new(2);

    /// Feeds one signal per timestamp and collects the actions returned.
    fn signals(
        d: &mut DefenceState,
        times: &[u64],
        peer: SwitchId,
        channel: PortId,
    ) -> Vec<MitigationAction> {
        times
            .iter()
            .filter_map(|&t| d.record_signal(t, peer, channel))
            .collect()
    }

    #[test]
    fn single_reject_never_triggers() {
        let mut d = DefenceState::new(cfg());
        assert_eq!(d.record_signal(100, S1, PortId::CPU), None);
        // A second reject far outside the window doesn't either.
        assert_eq!(d.record_signal(1_000_000, S1, PortId::CPU), None);
    }

    #[test]
    fn threshold_crossing_fires_exactly_one_rollover() {
        let mut d = DefenceState::new(cfg());
        let actions = signals(&mut d, &[100, 200, 300, 400, 500, 600], S1, PortId::CPU);
        assert_eq!(actions.len(), 1, "one crossing, one action");
        assert_eq!(actions[0].kind, MitigationKind::KeyRollover);
        assert_eq!(actions[0].peer, S1);
        assert_eq!(actions[0].channel, PortId::CPU);
        assert_eq!(actions[0].detected_at_ns, 300);
        assert!(d.mitigation_in_flight(S1, PortId::CPU));
        assert!(!d.is_quarantined(S1, PortId::CPU));
    }

    #[test]
    fn rejects_outside_window_are_pruned() {
        let mut d = DefenceState::new(cfg());
        // 2_000 is > window_ns past both earlier signals: they drop out.
        assert!(signals(&mut d, &[100, 200, 2_000], S1, PortId::CPU).is_empty());
    }

    #[test]
    fn key_install_reports_latency_and_resets() {
        let mut d = DefenceState::new(cfg());
        assert_eq!(signals(&mut d, &[100, 200, 300], S1, PortId::CPU).len(), 1);
        let done = d.on_key_installed(5_300, S1, PortId::CPU).unwrap();
        assert_eq!(done.kind, MitigationKind::KeyRollover);
        assert_eq!(done.latency_ns, 5_000);
        assert!(!d.mitigation_in_flight(S1, PortId::CPU));
        // A second install with nothing in flight reports nothing.
        assert!(d.on_key_installed(6_000, S1, PortId::CPU).is_none());
    }

    #[test]
    fn recrossing_soon_after_rollover_escalates_to_quarantine() {
        let mut d = DefenceState::new(cfg());
        let first = signals(&mut d, &[100, 200, 300], S1, PortId::CPU);
        assert_eq!(first[0].kind, MitigationKind::KeyRollover);
        d.on_key_installed(1_000, S1, PortId::CPU).unwrap();
        // Attack continues: cross the threshold again inside the
        // escalation window.
        let actions = signals(&mut d, &[1_100, 1_200, 1_300], S1, PortId::CPU);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].kind, MitigationKind::Quarantine);
        assert!(d.is_quarantined(S1, PortId::CPU));
        // A fresh key lifts the quarantine.
        let done = d.on_key_installed(2_300, S1, PortId::CPU).unwrap();
        assert_eq!(done.kind, MitigationKind::Quarantine);
        assert!(!d.is_quarantined(S1, PortId::CPU));
    }

    #[test]
    fn recrossing_long_after_rollover_stays_at_rollover() {
        let mut d = DefenceState::new(cfg());
        signals(&mut d, &[100, 200, 300], S1, PortId::CPU);
        d.on_key_installed(1_000, S1, PortId::CPU).unwrap();
        // Far beyond escalation_window_ns: ladder resets to rollover.
        let actions = signals(&mut d, &[100_000, 100_100, 100_200], S1, PortId::CPU);
        assert_eq!(actions[0].kind, MitigationKind::KeyRollover);
    }

    #[test]
    fn signals_during_in_flight_mitigation_are_ignored() {
        let mut d = DefenceState::new(cfg());
        let flood = [100, 200, 300, 310, 320, 330, 340];
        assert_eq!(signals(&mut d, &flood, S1, PortId::CPU).len(), 1);
    }

    #[test]
    fn channels_are_independent() {
        let mut d = DefenceState::new(cfg());
        let actions = signals(&mut d, &[100, 200, 300], S1, PortId::CPU);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].peer, S1);
        assert!(!d.mitigation_in_flight(S2, PortId::CPU));
        assert!(!d.mitigation_in_flight(S1, PortId::new(2)));
        // Distinct channels on the same peer accumulate separately.
        assert_eq!(d.record_signal(400, S2, PortId::new(1)), None);
        assert_eq!(d.record_signal(500, S2, PortId::new(2)), None);
        assert_eq!(d.record_signal(600, S2, PortId::new(1)), None);
    }

    #[test]
    fn abort_clears_in_flight_and_quarantine() {
        let mut d = DefenceState::new(cfg());
        signals(&mut d, &[100, 200, 300], S1, PortId::CPU);
        d.on_key_installed(1_000, S1, PortId::CPU).unwrap();
        signals(&mut d, &[1_100, 1_200, 1_300], S1, PortId::CPU);
        assert!(d.is_quarantined(S1, PortId::CPU));
        d.abort(S1, PortId::CPU);
        assert!(!d.is_quarantined(S1, PortId::CPU));
        assert!(!d.mitigation_in_flight(S1, PortId::CPU));
        // An aborted channel is live again: the next crossing fires.
        assert_eq!(
            signals(&mut d, &[1_400, 1_500, 1_600], S1, PortId::CPU).len(),
            1
        );
    }

    #[test]
    #[should_panic(expected = "reject_threshold")]
    fn threshold_below_two_rejected() {
        let _ = DefenceState::new(DefenceConfig {
            reject_threshold: 1,
            ..cfg()
        });
    }
}
