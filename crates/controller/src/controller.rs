//! Controller implementation.

use crate::defence::{DefenceConfig, DefenceState, MitigationKind};
use crate::outstanding::{Outstanding, PendingRequest};
use p4auth_core::adhkd::{AdhkdInitiator, AdhkdPayload};
use p4auth_core::auth::{AuthMetrics, RejectReason};
use p4auth_core::channel::ChannelEnd;
use p4auth_core::eak::{self, EakInitiator};
use p4auth_primitives::dh::{DhParams, DhPublic};
use p4auth_primitives::idhash::IdMap;
use p4auth_primitives::kdf::{Kdf, KdfConfig};
use p4auth_primitives::mac::{HalfSipHashMac, Mac};
use p4auth_primitives::rng::SplitMix64;
use p4auth_primitives::Key64;
use p4auth_telemetry::{Counter, Event as TelemetryEvent, Gauge, Histogram, Registry, SpanKind};
use p4auth_wire::body::{
    AdhkdRole, AlertKind, Body, EakStep, KexContext, KeyExchange, NackReason, RegisterOp,
};
use p4auth_wire::ids::{KeyVersion, PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::{verify_bound_frame, verify_frame, Message};
use std::collections::VecDeque;
use std::sync::Arc;

/// Controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// `false` issues unsigned requests (the DP-Reg-RW / P4Runtime
    /// baselines).
    pub auth_enabled: bool,
    /// RNG seed.
    pub rng_seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            auth_enabled: true,
            rng_seed: 0xc011_7201_1e4a_11ed,
        }
    }
}

/// §VIII DoS indicator: a response that leaves more requests than this
/// outstanding on its channel reports [`ControllerEvent::DosSuspected`].
const OUTSTANDING_THRESHOLD: u32 = 1024;

/// Requests sealed under one local key after which the controller rolls
/// it (RFC 4303 §3.3.3: rekey before the counter can cycle). A key
/// generation numbers its frames from 1 and stops at `u32::MAX` rather
/// than wrap; half the space leaves 2³¹ frames for the rollover to land,
/// which no round trip comes near.
const SEQ_HIGH_WATER: u32 = 1 << 31;

/// Capacity of the received-alert ring. When full, the oldest alert is
/// evicted and counted in [`ControllerStats::alerts_dropped`], mirroring
/// the agent-side alert limiter, so an alert storm cannot grow controller
/// memory without bound.
const ALERT_CAPACITY: usize = 1024;

/// Base delay of [`Controller::retry_stalled`]'s exponential backoff, in
/// sim-ns: the first retry of a stalled exchange waits
/// `KEX_RETRY_BACKOFF_NS` after it was sent, and the n-th after that
/// `KEX_RETRY_BACKOFF_NS * 2^n` since the previous attempt.
const KEX_RETRY_BACKOFF_NS: u64 = 200_000;

/// Retries after which a stalled exchange is abandoned: its pending state
/// is dropped, a terminal [`AlertKind::KeyExchangeFailure`] alert is
/// recorded and [`ControllerStats::kex_abandoned`] incremented, so a dead
/// switch cannot generate unbounded KMP traffic.
const KEX_RETRY_MAX_ATTEMPTS: u32 = 8;

/// A message the controller wants transmitted to a switch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outgoing {
    /// Destination switch.
    pub to: SwitchId,
    /// Encoded message bytes.
    pub bytes: Vec<u8>,
}

/// Things the controller observed while processing a message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControllerEvent {
    /// A register read completed.
    ValueRead {
        /// Switch that answered.
        switch: SwitchId,
        /// Register read.
        reg: RegId,
        /// Index read.
        index: u32,
        /// Value returned.
        value: u64,
    },
    /// A register write was acknowledged.
    WriteAcked {
        /// Switch that answered.
        switch: SwitchId,
        /// Register written.
        reg: RegId,
        /// Index written.
        index: u32,
    },
    /// A request was refused by the data plane.
    Nacked {
        /// Switch that answered.
        switch: SwitchId,
        /// Why.
        reason: NackReason,
    },
    /// An alert arrived from a switch (possible MitM!).
    AlertReceived {
        /// Reporting switch.
        switch: SwitchId,
        /// Alert kind.
        kind: AlertKind,
    },
    /// An incoming message failed verification at the controller.
    Rejected {
        /// Claimed sender.
        switch: SwitchId,
        /// Why.
        reason: RejectReason,
    },
    /// `K_auth` established with a switch (EAK complete).
    AuthKeyEstablished(SwitchId),
    /// `K_local` installed for a switch (local init complete).
    LocalKeyInstalled(SwitchId),
    /// `K_local` rolled over for a switch (local update complete).
    LocalKeyRolled(SwitchId),
    /// A port-key ADHKD leg was redirected between two data planes.
    PortExchangeRedirected {
        /// The leg's origin.
        from: SwitchId,
        /// The leg's destination.
        to: SwitchId,
    },
    /// A response arrived for an unknown/duplicate sequence number.
    UnmatchedResponse(SwitchId),
    /// Outstanding-request threshold exceeded (§VIII DoS indicator).
    DosSuspected {
        /// The switch whose channel is backlogged.
        switch: SwitchId,
        /// Requests still outstanding.
        outstanding: u32,
    },
    /// The adaptive defence loop decided on a mitigation for a channel.
    DefenceMitigated {
        /// The peer whose channel crossed the reject threshold.
        switch: SwitchId,
        /// The offending channel (`PortId::CPU` for the C-DP channel).
        channel: PortId,
        /// What the defence loop did about it.
        kind: MitigationKind,
    },
}

/// Lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Requests sent.
    pub requests_sent: u64,
    /// Ack/Nack responses accepted.
    pub responses_ok: u64,
    /// Messages rejected (digest/replay).
    pub rejected: u64,
    /// Alerts received.
    pub alerts: u64,
    /// Alerts evicted from the bounded alert ring.
    pub alerts_dropped: u64,
    /// Mitigations the adaptive defence loop issued.
    pub defence_mitigations: u64,
    /// Stalled key exchanges abandoned after exhausting the retry budget.
    pub kex_abandoned: u64,
    /// Authenticated register *requests* received and dropped. The
    /// controller serves none; its own request reflected back at it by a
    /// MitM verifies under the channel key and lands here.
    pub requests_ignored: u64,
}

impl std::ops::Add for ControllerStats {
    type Output = ControllerStats;

    /// Field-wise sum (a replica set's totals).
    fn add(self, o: ControllerStats) -> ControllerStats {
        ControllerStats {
            requests_sent: self.requests_sent + o.requests_sent,
            responses_ok: self.responses_ok + o.responses_ok,
            rejected: self.rejected + o.rejected,
            alerts: self.alerts + o.alerts,
            alerts_dropped: self.alerts_dropped + o.alerts_dropped,
            defence_mitigations: self.defence_mitigations + o.defence_mitigations,
            kex_abandoned: self.kex_abandoned + o.kex_abandoned,
            requests_ignored: self.requests_ignored + o.requests_ignored,
        }
    }
}

/// Pre-registered telemetry handles for the controller, labeled
/// `"controller"` for a standalone core and `"replica<i>"` for a replica
/// set's `i`-th.
struct ControllerTelemetry {
    registry: Arc<Registry>,
    /// Trace-span source id for this controller instance. Controllers are
    /// not simulation nodes, so they use a reserved range above any
    /// plausible switch id: `0xFE00` for `"controller"`, `0xFE01 + i` for
    /// `"replica<i>"` — keeping per-source span sequence streams disjoint
    /// from the data plane's.
    trace_source: u16,
    auth: AuthMetrics,
    register_op_ns: Arc<Histogram>,
    outstanding: Arc<Gauge>,
    requests_sent: Arc<Counter>,
    responses_ok: Arc<Counter>,
    alerts_received: Arc<Counter>,
    alerts_dropped: Arc<Counter>,
    key_installs: Arc<Counter>,
    key_rollovers: Arc<Counter>,
    defence_mitigations: Arc<Counter>,
    defence_latency_ns: Arc<Histogram>,
    kex_abandoned: Arc<Counter>,
    rollover_fanout_ns: Arc<Histogram>,
    /// `ctrl_channel_rejects{<peer>:<channel>}`, each series registered
    /// at its channel's first reject and kept here: a flood's every
    /// frame lands on this counter, and looking it up in the registry
    /// costs three `String`s and the registry lock.
    channel_rejects: IdMap<(SwitchId, PortId), Arc<Counter>>,
}

impl ControllerTelemetry {
    /// Records a zero-width trace span at this controller's source, if
    /// tracing is enabled on the registry.
    fn trace_instant(&self, kind: SpanKind, now_ns: u64, arg_a: u64, arg_b: u64) {
        self.registry
            .trace()
            .instant(kind, now_ns, self.trace_source, arg_a, arg_b);
    }

    /// Logs one key-exchange step this controller took.
    fn kex_step(&self, now_ns: u64, step: &'static str) {
        let node = SwitchId::CONTROLLER.value();
        self.registry
            .record(now_ns, TelemetryEvent::KexStep { node, step });
    }

    /// Logs one step of the defence loop on `(peer, channel)`.
    fn defence_action(&self, now_ns: u64, peer: SwitchId, channel: PortId, action: &'static str) {
        let (peer, channel) = (peer.value(), channel.value());
        let action = TelemetryEvent::DefenceAction {
            peer,
            channel,
            action,
        };
        self.registry.record(now_ns, action);
    }

    /// Handles for a standalone core (`replica = None`) or for replica
    /// `i` of a set.
    fn new(registry: Arc<Registry>, replica: Option<usize>) -> Self {
        let (label, trace_source) = match replica {
            None => ("controller".to_string(), 0xFE00),
            Some(i) => (format!("replica{i}"), 0xFE01 + i.min(0xFE) as u16),
        };
        let label = label.as_str();
        ControllerTelemetry {
            trace_source,
            auth: AuthMetrics::register(&registry, label),
            register_op_ns: registry.histogram_with("ctrl_register_op_ns", label),
            outstanding: registry.gauge_with("ctrl_outstanding", label),
            requests_sent: registry.counter_with("ctrl_requests_sent", label),
            responses_ok: registry.counter_with("ctrl_responses_ok", label),
            alerts_received: registry.counter_with("ctrl_alerts_received", label),
            alerts_dropped: registry.counter_with("ctrl_alerts_dropped", label),
            key_installs: registry.counter_with("ctrl_key_installs", label),
            key_rollovers: registry.counter_with("ctrl_key_rollovers", label),
            defence_mitigations: registry.counter_with("ctrl_defence_mitigations", label),
            defence_latency_ns: registry.histogram_with("defence_mitigation_latency_ns", label),
            kex_abandoned: registry.counter_with("ctrl_kex_abandoned", label),
            rollover_fanout_ns: registry.histogram_with("ctrl_rollover_fanout_ns", label),
            channel_rejects: IdMap::default(),
            registry,
        }
    }
}

struct SwitchChannel {
    /// `K_seed`, `K_auth` and the local key, each key generation with its
    /// own counter and window on this switch's alerts and key-exchange
    /// legs.
    end: ChannelEnd,
    outstanding: Outstanding,
}

impl SwitchChannel {
    fn new(k_seed: Key64) -> Self {
        SwitchChannel {
            end: ChannelEnd::new(Some(k_seed)),
            outstanding: Outstanding::default(),
        }
    }
}

/// `msg` as `end`'s next frame: sealed under the key the channel's key rule
/// picks, or plain while that key is missing or authentication is off.
fn seal_frame(end: &mut ChannelEnd, auth: bool, mac: &HalfSipHashMac, msg: Message) -> Vec<u8> {
    if !auth {
        return end.seal_plain(msg);
    }
    end.seal(None, msg, |key, parts| mac.compute(key, parts))
        .unwrap_or_else(|msg| msg.encode())
}

/// The channel to a registered switch.
///
/// # Panics
///
/// Panics if `switch` was never registered — a harness bug.
fn channel_in(
    switches: &mut IdMap<SwitchId, SwitchChannel>,
    switch: SwitchId,
) -> &mut SwitchChannel {
    switches
        .get_mut(&switch)
        .unwrap_or_else(|| panic!("unknown switch {switch}"))
}

/// One key exchange in flight (§VI, Fig. 14): what the controller must
/// re-send if it stalls, and the end whose key it sets.
enum Exchange {
    /// Fig. 14 a, first half: `Salt1` sent to the switch, `Salt2` awaited.
    Eak(SwitchId, EakInitiator),
    /// Fig. 14 a, second half (`LocalInit`, under `K_auth`) or Fig. 14 b
    /// (`LocalUpdate`, under the local key): the offer as sent, with its
    /// initiator. Retries re-send this *same* offer (fresh seq) rather
    /// than regenerating the exchange — a regenerated offer racing the
    /// original through the network would derive on the responder twice
    /// for one counted rollover (the responder dedupes retransmissions
    /// by offer content).
    Offer(SwitchId, KexContext, AdhkdInitiator, AdhkdPayload),
    /// Fig. 14 c: a port-key init whose legs this core redirects, from
    /// its initiator to its responder. Each end is a `(switch, exchange
    /// port)`, the port its legs carry in their header.
    Redirect((SwitchId, PortId), (SwitchId, PortId)),
    /// Fig. 14 d: a direct port-key update from an initiating `(switch,
    /// port)` to a peer switch, run by the two data planes without the
    /// controller. The initiator's install notice
    /// ([`Controller::notify_port_key_installed`]) ends it.
    PortUpdate((SwitchId, PortId), SwitchId),
}

impl Exchange {
    /// The `(switch, channel)` whose key the exchange sets: the CPU
    /// channel for a local exchange, the initiating end for a port one.
    /// A mitigation on that channel waits for it.
    fn end(&self) -> (SwitchId, PortId) {
        match *self {
            Exchange::Eak(switch, _) | Exchange::Offer(switch, ..) => (switch, PortId::CPU),
            Exchange::Redirect(initiator, _) | Exchange::PortUpdate(initiator, _) => initiator,
        }
    }

    /// The message that drives the exchange, sent to its end's switch:
    /// `Salt1`, the offer, `portKeyInit` or `portKeyUpdate`, as first sent.
    fn request(&self) -> KeyExchange {
        match *self {
            Exchange::Eak(_, ref eak) => KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: eak.salt1(),
            },
            Exchange::Offer(_, context, _, offer) => KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                context,
                public_key: offer.public_key.to_raw(),
                salt: offer.salt,
            },
            Exchange::Redirect((_, peer_port), (peer, _)) => {
                KeyExchange::PortKeyInit { peer, peer_port }
            }
            Exchange::PortUpdate((_, peer_port), peer) => {
                KeyExchange::PortKeyUpdate { peer, peer_port }
            }
        }
    }

    /// For a redirect, the ends that send and receive its `role` leg.
    fn redirect_leg(&self, role: AdhkdRole) -> Option<((SwitchId, PortId), (SwitchId, PortId))> {
        match (self, role) {
            (&Exchange::Redirect(initiator, responder), AdhkdRole::Offer) => {
                Some((initiator, responder))
            }
            (&Exchange::Redirect(initiator, responder), AdhkdRole::Answer) => {
                Some((responder, initiator))
            }
            _ => None,
        }
    }

    /// Whether `self` is a direct port-key update from `end`.
    fn updates_from(&self, end: (SwitchId, PortId)) -> bool {
        matches!(*self, Exchange::PortUpdate(initiator, _) if initiator == end)
    }
}

/// A verified ADHKD leg of a port-key init (Fig. 14 c), as the controller
/// forwards it: its sender's `(switch, exchange port)` and the public
/// values it carries.
#[derive(Clone, Copy)]
pub(crate) struct RedirectLeg {
    from: (SwitchId, PortId),
    role: AdhkdRole,
    public_key: u64,
    salt: u32,
}

/// A redirect leg one core cannot finish alone. Every frame from a switch
/// reaches that switch's owner and every frame to a switch is sealed by
/// its owner, so a leg between two partitions passes through the core
/// that holds its redirect and the core that owns its receiver.
pub(crate) enum Handoff {
    /// No redirect on this core awaits the leg: it goes to the core whose
    /// redirect does.
    Unclaimed(RedirectLeg),
    /// This core's redirect sends the leg to a `(switch, exchange port)`
    /// that another core owns: that core seals it.
    Seal(RedirectLeg, (SwitchId, PortId)),
}

/// Where an exchange sits in [`Controller::retry_stalled`]'s order, which
/// is observable (sequence numbers, RNG draws, telemetry events): a
/// switch's local exchange by switch id, then port-key exchanges in start
/// order. A switch has at most one local exchange.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Slot {
    Local(SwitchId),
    Port(u64),
}

/// An [`Exchange`] and its place in [`Controller::retry_stalled`]'s
/// capped exponential backoff.
struct InFlight {
    exchange: Exchange,
    /// Retries already issued.
    attempts: u32,
    /// Sim time the exchange was last (re-)issued.
    last_attempt_ns: u64,
}

impl InFlight {
    /// Whether a retry is due at `now_ns`: the first waits one backoff
    /// after the exchange started, so a caller that retries in the step
    /// that started it sends nothing twice, and the delay doubles per
    /// attempt.
    fn due(&self, now_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_attempt_ns) >= KEX_RETRY_BACKOFF_NS << self.attempts
    }
}

/// Every key exchange in flight on one core, the one record of each:
/// sorted by [`Slot`], so iteration is retry order. A ring searched by
/// bisection rather than a tree: one allocation serves the core's
/// lifetime, and exchanges mostly start at the back (rising switch ids,
/// later port slots) and end near the front, where a ring moves nothing.
#[derive(Default)]
struct Exchanges(VecDeque<(Slot, InFlight)>);

impl Exchanges {
    fn find(&self, slot: Slot) -> Result<usize, usize> {
        self.0.binary_search_by_key(&slot, |&(s, _)| s)
    }

    fn get(&self, slot: Slot) -> Option<&InFlight> {
        self.find(slot).ok().map(|i| &self.0[i].1)
    }

    fn get_mut(&mut self, slot: Slot) -> Option<&mut InFlight> {
        self.find(slot).ok().map(|i| &mut self.0[i].1)
    }

    fn remove(&mut self, slot: Slot) -> Option<InFlight> {
        let i = self.find(slot).ok()?;
        self.0.remove(i).map(|(_, x)| x)
    }

    /// The port-key exchanges, in start order.
    fn ports(&self) -> impl Iterator<Item = (Slot, &InFlight)> {
        let first = self.0.partition_point(|&(s, _)| s < Slot::Port(0));
        self.0.range(first..).map(|(s, x)| (*s, x))
    }
}

/// The P4Auth controller.
pub struct Controller {
    config: ControllerConfig,
    mac: HalfSipHashMac,
    kdf: Kdf,
    rng: SplitMix64,
    switches: IdMap<SwitchId, SwitchChannel>,
    /// Every key exchange in flight on this core, the one record of each.
    exchanges: Exchanges,
    alerts: VecDeque<(SwitchId, AlertKind)>,
    stats: ControllerStats,
    now_ns: u64,
    telemetry: Option<ControllerTelemetry>,
    defence: Option<DefenceState>,
    /// The switch behind each DP-DP `(switch, port)` that a port-key init
    /// named to this core: where a mitigation on that port channel sends
    /// its port-key update.
    port_peers: IdMap<(SwitchId, PortId), SwitchId>,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("switches", &self.switches.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates a controller with no switches registered.
    pub fn new(config: ControllerConfig) -> Self {
        Controller {
            mac: HalfSipHashMac::default(),
            kdf: Kdf::new(KdfConfig::PAPER),
            rng: SplitMix64::new(config.rng_seed),
            switches: IdMap::default(),
            exchanges: Exchanges::default(),
            alerts: VecDeque::new(),
            stats: ControllerStats::default(),
            config,
            now_ns: 0,
            telemetry: None,
            defence: None,
            port_peers: IdMap::default(),
        }
    }

    /// Pushes the simulation clock. The controller has no clock of its own;
    /// the harness calls this before every `on_message` / request issue so
    /// register-op latencies can be measured in sim-ns.
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Attaches a telemetry registry; controller metrics are labeled
    /// `"controller"`.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.telemetry = Some(ControllerTelemetry::new(registry, None));
    }

    /// Attaches a telemetry registry as replica `index` of a set: metrics
    /// are labeled `"replica<index>"`, so per-replica series stay apart
    /// in one shared registry.
    pub(crate) fn set_replica_telemetry(&mut self, registry: Arc<Registry>, index: usize) {
        self.telemetry = Some(ControllerTelemetry::new(registry, Some(index)));
    }

    /// Registers a switch and its pre-shared boot secret.
    ///
    /// # Panics
    ///
    /// Panics on duplicate registration.
    pub fn register_switch(&mut self, id: SwitchId, k_seed: Key64) {
        let prev = self.switches.insert(id, SwitchChannel::new(k_seed));
        assert!(prev.is_none(), "switch {id} registered twice");
    }

    /// Whether `K_local` is established with `switch`.
    pub fn has_local_key(&self, switch: SwitchId) -> bool {
        self.switches
            .get(&switch)
            .is_some_and(|c| c.end.keys().is_installed())
    }

    /// Whether `K_auth` is established with `switch`.
    pub fn has_auth_key(&self, switch: SwitchId) -> bool {
        self.switches
            .get(&switch)
            .is_some_and(|c| c.end.has_auth_key())
    }

    /// Alerts retained in the bounded ring (newest at the back); older
    /// alerts beyond the ring's 1,024 are evicted and counted in
    /// [`ControllerStats::alerts_dropped`].
    pub fn alerts(&self) -> &VecDeque<(SwitchId, AlertKind)> {
        &self.alerts
    }

    /// Enables the adaptive defence loop: a sliding window of auth
    /// failures per `(peer, channel)`, fed by this controller's own
    /// verdicts, with automatic key rollover / quarantine. It reads no
    /// telemetry, so it works with or without a registry attached.
    pub fn enable_defence(&mut self, config: DefenceConfig) {
        self.defence = Some(DefenceState::new(config));
    }

    /// Whether a defence mitigation is currently in flight on
    /// `(peer, channel)`.
    pub fn defence_in_flight(&self, peer: SwitchId, channel: PortId) -> bool {
        self.defence
            .as_ref()
            .is_some_and(|d| d.mitigation_in_flight(peer, channel))
    }

    /// Whether a CPU-channel key exchange (EAK or ADHKD) is currently in
    /// flight toward `switch`.
    pub fn kex_in_flight(&self, switch: SwitchId) -> bool {
        self.exchanges.get(Slot::Local(switch)).is_some()
    }

    /// The established local key and its version for `switch`, if this
    /// core owns it and has one. The key manager reads the version to judge
    /// rollover progress.
    pub fn local_key_material(&self, switch: SwitchId) -> Option<(Key64, KeyVersion)> {
        let keys = self.switches.get(&switch)?.end.keys();
        keys.current().map(|k| (k, keys.version()))
    }

    /// Rekeys `chan`'s local key and retires the requests the switch can no
    /// longer answer (DESIGN §2); the telemetry gauge follows.
    fn rekey(&mut self, switch: SwitchId, key: Key64, rolled: bool) {
        let chan = self.channel_mut(switch);
        let old = chan.end.keys().version();
        chan.end.rekey(key, rolled);
        let retired = chan.outstanding.retire(rolled.then_some(old));
        if let Some(t) = &self.telemetry {
            t.outstanding.sub(retired as i64);
        }
    }

    /// Records one bulk-rollover fan-out latency (epoch start → every
    /// switch in the partition on the new epoch) in the
    /// `ctrl_rollover_fanout_ns` histogram.
    pub fn record_rollover_fanout(&self, latency_ns: u64) {
        if let Some(t) = &self.telemetry {
            t.rollover_fanout_ns.record(latency_ns);
        }
    }

    /// Records a zero-width trace span at this controller's trace source
    /// (no-op without telemetry or with tracing disabled). Daemons that
    /// act *through* this controller use it to stamp their statedb writes
    /// and wakeups into the same span stream.
    pub(crate) fn trace_instant(&self, kind: SpanKind, now_ns: u64, arg_a: u64, arg_b: u64) {
        if let Some(t) = &self.telemetry {
            t.trace_instant(kind, now_ns, arg_a, arg_b);
        }
    }

    /// Records a completed trace span `[start_ns, end_ns]` at this
    /// controller's trace source (no-op without telemetry or tracing).
    pub(crate) fn trace_span(
        &self,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        arg_a: u64,
        arg_b: u64,
    ) {
        if let Some(t) = &self.telemetry {
            let trace = t.registry.trace();
            if let Some(span) = trace.start(kind, start_ns, t.trace_source) {
                trace.end(span, end_ns, arg_a, arg_b);
            }
        }
    }

    /// Whether the defence loop currently quarantines `(switch, channel)`.
    pub fn defence_quarantined(&self, switch: SwitchId, channel: PortId) -> bool {
        self.defence
            .as_ref()
            .is_some_and(|d| d.is_quarantined(switch, channel))
    }

    /// Notifies the controller that a fresh key landed on a DP-DP port
    /// channel. The controller observes local-key completions itself but
    /// never sees port-key ADHKD finish (it only redirects the legs, or
    /// sends none), so the harness reports those. Ends a direct port-key
    /// update that `(peer, channel)` initiated, and records the
    /// detection-to-mitigation latency if a mitigation was in flight.
    pub fn notify_port_key_installed(&mut self, peer: SwitchId, channel: PortId) {
        if let Some(slot) = self.port_slot(|x| x.updates_from((peer, channel))) {
            self.exchanges.remove(slot);
        }
        self.complete_mitigation(peer, channel);
    }

    /// Bumps the per-channel auth-failure counter
    /// `ctrl_channel_rejects{<peer>:<channel>}`: every signal the defence
    /// loop is fed, whether or not the loop is armed. Observability only —
    /// nothing reads it back to make a decision.
    fn count_channel_reject(&mut self, peer: SwitchId, channel: PortId) {
        if let Some(t) = &mut self.telemetry {
            t.channel_rejects
                .entry((peer, channel))
                .or_insert_with(|| {
                    t.registry
                        .counter_with("ctrl_channel_rejects", &format!("{peer}:{channel}"))
                })
                .inc();
        }
    }

    fn complete_mitigation(&mut self, peer: SwitchId, channel: PortId) {
        let now_ns = self.now_ns;
        let Some(done) = self
            .defence
            .as_mut()
            .and_then(|d| d.on_key_installed(now_ns, peer, channel))
        else {
            return;
        };
        if let Some(t) = &self.telemetry {
            t.defence_latency_ns.record(done.latency_ns);
            t.defence_action(now_ns, peer, channel, "mitigation_complete");
            // The mitigation critical path as one trace: a root span over
            // the full detection-to-mitigation latency with stage children
            // that partition it exactly — detect and publish (instants at
            // t0: the signal that crossed the threshold published the
            // action at once), kmp [t0, now] (the key-exchange round trip),
            // install (instant at now). Stage widths sum to
            // `done.latency_ns` by construction.
            let trace = t.registry.trace();
            if trace.enabled() {
                let t0 = now_ns.saturating_sub(done.latency_ns);
                let (a, b) = (u64::from(peer.value()), u64::from(channel.value()));
                let src = t.trace_source;
                if let Some(root) = trace.start(SpanKind::Mitigation, t0, src) {
                    trace.instant_in(&root, SpanKind::MitigationDetect, t0, src, a, b);
                    trace.instant_in(&root, SpanKind::MitigationPublish, t0, src, a, b);
                    if let Some(s) = trace.child(&root, SpanKind::MitigationKmp, t0, src) {
                        trace.end(s, now_ns, a, b);
                    }
                    trace.instant_in(&root, SpanKind::MitigationInstall, now_ns, src, a, b);
                    let quarantine = done.kind == MitigationKind::Quarantine;
                    if quarantine {
                        trace.instant_in(&root, SpanKind::QuarantineLift, now_ns, src, a, b);
                    }
                    trace.end(root, now_ns, a, u64::from(quarantine));
                }
            }
        }
    }

    /// Feeds one auth-failure signal on `(peer, channel)` to the defence
    /// loop and, if it is the one that crosses the threshold, applies the
    /// mitigation before returning: rolls the local key for a CPU channel,
    /// the port key toward the switch behind the port for a DP-DP one.
    fn drive_defence(
        &mut self,
        peer: SwitchId,
        channel: PortId,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<ControllerEvent>,
    ) {
        let Some(defence) = &mut self.defence else {
            return;
        };
        let Some(kind) = defence.record_signal(self.now_ns, peer, channel) else {
            return;
        };
        self.stats.defence_mitigations += 1;
        if let Some(t) = &self.telemetry {
            t.defence_mitigations.inc();
            t.defence_action(self.now_ns, peer, channel, kind.as_str());
        }
        events.push(ControllerEvent::DefenceMitigated {
            switch: peer,
            channel,
            kind,
        });
        // Both rungs roll the key: for a quarantine the fresh key is also
        // the exit path.
        let update = if channel.is_cpu() {
            self.has_local_key(peer)
                .then(|| self.local_key_update(peer))
        } else {
            (self.port_peers.get(&(peer, channel)).copied())
                .map(|other| self.port_key_update(peer, channel, other))
        };
        match update {
            Some(frames) => out.extend(frames),
            // Nothing to roll (bootstrap still running, or no port-key
            // exchange ever named this port): abandon rather than wedge
            // the channel.
            None => self.abort_mitigation(peer, channel),
        }
    }

    /// Abandons the mitigation in flight on `(peer, channel)`: nothing
    /// will complete it, so the channel must not stay wedged waiting. A
    /// quarantine stays until a fresh key lands.
    fn abort_mitigation(&mut self, peer: SwitchId, channel: PortId) {
        if let Some(d) = &mut self.defence {
            d.abort(peer, channel);
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Outstanding (unanswered) requests toward `switch`.
    pub fn outstanding(&self, switch: SwitchId) -> u32 {
        self.switches
            .get(&switch)
            .map_or(0, |c| c.outstanding.len() as u32)
    }

    fn channel_mut(&mut self, switch: SwitchId) -> &mut SwitchChannel {
        channel_in(&mut self.switches, switch)
    }

    /// `msg` as the next frame toward `switch` ([`seal_frame`]).
    fn seal(&mut self, switch: SwitchId, msg: Message) -> Outgoing {
        let end = &mut channel_in(&mut self.switches, switch).end;
        let bytes = seal_frame(end, self.config.auth_enabled, &self.mac, msg);
        Outgoing { to: switch, bytes }
    }

    // ----- register access (§V) -------------------------------------------

    /// Issues a register read request.
    pub fn read_register(&mut self, switch: SwitchId, reg: RegId, index: u32) -> Outgoing {
        self.request(switch, reg, index, None)
    }

    /// Issues a register write request.
    pub fn write_register(
        &mut self,
        switch: SwitchId,
        reg: RegId,
        index: u32,
        value: u64,
    ) -> Outgoing {
        self.request(switch, reg, index, Some(value))
    }

    fn request(
        &mut self,
        switch: SwitchId,
        reg: RegId,
        index: u32,
        value: Option<u64>,
    ) -> Outgoing {
        let op = match value {
            Some(v) => RegisterOp::write_req(reg, index, v),
            None => RegisterOp::read_req(reg, index),
        };
        let (auth, now_ns) = (self.config.auth_enabled, self.now_ns);
        let chan = channel_in(&mut self.switches, switch);
        let before = chan.end.last_sent();
        let msg = Message::register_request(SwitchId::CONTROLLER, SeqNum::default(), op);
        let bytes = seal_frame(&mut chan.end, auth, &self.mac, msg);
        let (version, seq) = chan.end.last_sent();
        // A request that went out under no key (none yet, or its counter
        // ran out) drew no number and has no generation to be answered
        // under.
        let numbered = (version, seq) != before;
        if numbered {
            let is_write = value.is_some();
            let pending = PendingRequest {
                reg,
                index,
                is_write,
                sent_at_ns: now_ns,
            };
            chan.outstanding.push(version, seq, pending);
        }
        self.stats.requests_sent += 1;
        if let Some(t) = &self.telemetry {
            t.requests_sent.inc();
            t.outstanding.add(i64::from(numbered));
        }
        Outgoing { to: switch, bytes }
    }

    // ----- key management (§VI) -------------------------------------------

    /// Records `exchange` as started now and returns its first frame. A
    /// local exchange takes its switch's slot, replacing whatever was in
    /// flight there; a port one goes after every port exchange in flight.
    fn start(&mut self, exchange: Exchange) -> Outgoing {
        let (switch, channel) = exchange.end();
        let slot = if channel.is_cpu() {
            Slot::Local(switch)
        } else {
            match self.exchanges.0.back() {
                Some(&(Slot::Port(n), _)) => Slot::Port(n + 1),
                _ => Slot::Port(0),
            }
        };
        let kex = exchange.request();
        let x = InFlight {
            exchange,
            attempts: 0,
            last_attempt_ns: self.now_ns,
        };
        match self.exchanges.find(slot) {
            Ok(i) => self.exchanges.0[i].1 = x,
            Err(i) => self.exchanges.0.insert(i, (slot, x)),
        }
        self.seal_kex(switch, kex)
    }

    /// `kex` as the next frame toward `switch`.
    fn seal_kex(&mut self, switch: SwitchId, kex: KeyExchange) -> Outgoing {
        let msg = Message::key_exchange(SwitchId::CONTROLLER, PortId::CPU, SeqNum::default(), kex);
        self.seal(switch, msg)
    }

    /// Starts local-key initialization for `switch` (Fig. 14 a): sends EAK
    /// salt #1, sealed with `K_seed`. It replaces any exchange in flight
    /// on the switch's channel: an init starts the channel over.
    pub fn local_key_init(&mut self, switch: SwitchId) -> Vec<Outgoing> {
        let k_seed = self.channel_mut(switch).end.seed_key().unwrap_or_default();
        let (eak, _) = EakInitiator::start(k_seed, &mut self.rng);
        vec![self.start(Exchange::Eak(switch, eak))]
    }

    /// Starts a local-key rollover (Fig. 14 b): ADHKD offer under the
    /// current `K_local`. It replaces a rollover in flight on the switch's
    /// channel; an init in flight is left to finish and no frame is sent,
    /// since the init's key is the fresh key the rollover would bring (and
    /// its completion completes a mitigation waiting on the channel).
    ///
    /// # Panics
    ///
    /// Panics if no local key is installed yet.
    pub fn local_key_update(&mut self, switch: SwitchId) -> Vec<Outgoing> {
        assert!(
            self.has_local_key(switch),
            "local key update before init for {switch}"
        );
        if let Some(InFlight {
            exchange: Exchange::Eak(..) | Exchange::Offer(_, KexContext::LocalInit, ..),
            ..
        }) = self.exchanges.get(Slot::Local(switch))
        {
            return Vec::new();
        }
        let switch_arg = u64::from(switch.value());
        self.trace_instant(SpanKind::KmpOffer, self.now_ns, switch_arg, 1);
        vec![self.start_offer(switch, KexContext::LocalUpdate)]
    }

    /// Starts the ADHKD half of a local exchange (`context` is
    /// `LocalInit` or `LocalUpdate`) from a fresh private key and salt.
    fn start_offer(&mut self, switch: SwitchId, context: KexContext) -> Outgoing {
        let (init, offer) = AdhkdInitiator::start(DhParams::recommended(), &mut self.rng);
        self.start(Exchange::Offer(switch, context, init, offer))
    }

    /// The slot of the first port-key exchange in flight that `pred`
    /// picks, in start order.
    fn port_slot(&self, pred: impl Fn(&Exchange) -> bool) -> Option<Slot> {
        self.exchanges
            .ports()
            .find(|(_, x)| pred(&x.exchange))
            .map(|(slot, _)| slot)
    }

    /// The pending redirect expecting a `role` leg from `from`, a
    /// `(switch, exchange port)`: its slot, and the end the leg goes to.
    fn redirect_for(
        &self,
        role: AdhkdRole,
        from: (SwitchId, PortId),
    ) -> Option<(Slot, (SwitchId, PortId))> {
        self.exchanges
            .ports()
            .find_map(|(slot, x)| match x.exchange.redirect_leg(role)? {
                (sender, dest) if sender == from => Some((slot, dest)),
                _ => None,
            })
    }

    /// Whether a pending redirect on this core awaits `leg`.
    pub(crate) fn awaits(&self, leg: &RedirectLeg) -> bool {
        self.redirect_for(leg.role, leg.from).is_some()
    }

    /// Starts port-key initialization between `(sw1, port1)` and
    /// `(sw2, port2)` (Fig. 14 c): `portKeyInit` to the initiator switch;
    /// subsequent ADHKD legs are redirected through
    /// [`Controller::on_message`]. One exchange per link: while this
    /// link's redirect is pending, a second call returns no frames — a
    /// flapping link's recovery must not overlap key generations, and
    /// [`Controller::retry_stalled`] re-drives the pending one. Either way
    /// the core learns the link, so a defence mitigation on either end's
    /// port channel knows the peer its port-key update goes to.
    pub fn port_key_init(
        &mut self,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
        port2: PortId,
    ) -> Vec<Outgoing> {
        let (initiator, responder) = ((sw1, port1), (sw2, port2));
        self.learn_link(initiator, responder);
        let link = Some((initiator, responder));
        if self
            .port_slot(|x| x.redirect_leg(AdhkdRole::Offer) == link)
            .is_some()
        {
            return Vec::new();
        }
        self.trace_port_exchange(sw1, sw2);
        vec![self.start(Exchange::Redirect(initiator, responder))]
    }

    /// Records that `a` and `b` are the two ends of one DP-DP link.
    pub(crate) fn learn_link(&mut self, a: (SwitchId, PortId), b: (SwitchId, PortId)) {
        self.port_peers.insert(a, b.0);
        self.port_peers.insert(b, a.0);
    }

    /// Starts a direct DP-DP port-key rollover (Fig. 14 d): one
    /// `portKeyUpdate` control message to the initiating switch. One
    /// exchange per initiating end: while its update is in flight, a
    /// second call returns no frames and [`Controller::retry_stalled`]
    /// re-drives the pending one.
    pub fn port_key_update(
        &mut self,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
    ) -> Vec<Outgoing> {
        let initiator = (sw1, port1);
        if self.port_slot(|x| x.updates_from(initiator)).is_some() {
            return Vec::new();
        }
        self.trace_port_exchange(sw1, sw2);
        vec![self.start(Exchange::PortUpdate(initiator, sw2))]
    }

    /// Stamps the start of a port-key exchange between `sw1` and `sw2`.
    fn trace_port_exchange(&self, sw1: SwitchId, sw2: SwitchId) {
        let (a, b) = (u64::from(sw1.value()), u64::from(sw2.value()));
        self.trace_instant(SpanKind::PortKeyExchange, self.now_ns, a, b);
    }

    /// Re-drives stalled key exchanges (a lost message leaves one in
    /// flight): EAK restarts with a fresh salt, a pending ADHKD offer is
    /// re-sent as first sent, a pending port-key redirect is re-initiated
    /// and a pending direct port-key update is re-sent. Safe to call
    /// periodically — completed exchanges are no longer in flight and
    /// produce nothing.
    ///
    /// Retries back off exponentially in sim-ns: the first retry of an
    /// exchange waits 200 µs after it was sent, and each further retry
    /// twice as long as the one before. After 8 retries the exchange is
    /// abandoned — it is dropped, a terminal
    /// [`AlertKind::KeyExchangeFailure`] alert lands in the alert ring,
    /// [`ControllerStats::kex_abandoned`] is incremented and a mitigation
    /// waiting on the exchange's channel is aborted — so a dead switch
    /// cannot generate unbounded KMP traffic.
    pub fn retry_stalled(&mut self) -> Vec<Outgoing> {
        let now_ns = self.now_ns;
        let due: Vec<(Slot, u32)> = (self.exchanges.0.iter())
            .filter(|(_, x)| x.due(now_ns))
            .map(|&(slot, ref x)| (slot, x.attempts))
            .collect();
        let mut out = Vec::with_capacity(due.len());
        for (slot, attempts) in due {
            if attempts >= KEX_RETRY_MAX_ATTEMPTS {
                self.abandon(slot);
                continue;
            }
            let Some(x) = self.exchanges.get(slot) else {
                continue;
            };
            let (switch, kex) = (x.exchange.end().0, x.exchange.request());
            if let Exchange::Eak(..) = x.exchange {
                // Restart the whole local-key init from EAK step 1.
                out.extend(self.local_key_init(switch));
            } else {
                // Anything else re-sends its request as first sent (fresh
                // seq only). A pending offer's state stays put, so an
                // answer to either copy completes it, and the responder's
                // dedupe cache keeps the duplicate from deriving a second
                // key (the key rule seals a LocalInit offer under K_auth
                // and a LocalUpdate one under the current K_local). A
                // `portKeyInit` re-kicks the redirect from the top, and a
                // switch with the `portKeyUpdate`'s exchange pending
                // re-sends its offer unchanged.
                out.push(self.seal_kex(switch, kex));
            }
            // A restart reset the slot's attempt count; it carries on so
            // the backoff keeps growing.
            if let Some(x) = self.exchanges.get_mut(slot) {
                (x.attempts, x.last_attempt_ns) = (attempts + 1, now_ns);
            }
        }
        out
    }

    /// Abandons the exchange in `slot` after its retry budget is spent:
    /// terminal alert, counter, defence un-wedge.
    fn abandon(&mut self, slot: Slot) {
        let Some(x) = self.exchanges.remove(slot) else {
            return;
        };
        let (switch, channel) = x.exchange.end();
        self.stats.kex_abandoned += 1;
        self.push_alert(switch, AlertKind::KeyExchangeFailure);
        let step = match channel.is_cpu() {
            true => "kex_abandoned",
            false => "port_kex_abandoned",
        };
        if let Some(t) = &self.telemetry {
            t.kex_abandoned.inc();
            t.kex_step(self.now_ns, step);
        }
        // A defence mitigation waiting on this exchange would never
        // complete; abort it so the channel is not wedged (quarantine
        // included — its exit path just died).
        self.abort_mitigation(switch, channel);
    }

    /// Appends to the bounded alert ring, evicting (and counting) the
    /// oldest when full.
    fn push_alert(&mut self, switch: SwitchId, kind: AlertKind) {
        while self.alerts.len() >= ALERT_CAPACITY {
            self.alerts.pop_front();
            self.stats.alerts_dropped += 1;
            if let Some(t) = &self.telemetry {
                t.alerts_dropped.inc();
            }
        }
        self.alerts.push_back((switch, kind));
    }

    // ----- inbound processing ---------------------------------------------

    /// Counts one rejected frame from `from` on the C-DP channel: stats,
    /// the per-reason counter, the `DigestRejected` log record, the event.
    fn note_reject(
        &mut self,
        from: SwitchId,
        reason: RejectReason,
        events: &mut Vec<ControllerEvent>,
    ) {
        self.stats.rejected += 1;
        if let Some(t) = &self.telemetry {
            t.auth.record_verify(&Err(reason));
            t.registry.record(
                self.now_ns,
                TelemetryEvent::DigestRejected {
                    peer: from.value(),
                    channel: PortId::CPU.value(),
                    reason: reason.kind(),
                },
            );
        }
        events.push(ControllerEvent::Rejected {
            switch: from,
            reason,
        });
    }

    /// Processes a message received from `from`; returns follow-up
    /// messages to transmit and the events observed.
    pub fn on_message(
        &mut self,
        from: SwitchId,
        bytes: &[u8],
    ) -> (Vec<Outgoing>, Vec<ControllerEvent>) {
        let (out, events, _) = self.receive(from, bytes);
        (out, events)
    }

    /// [`Controller::on_message`], plus the port-key redirect leg this core
    /// verified but cannot finish alone: a replica set hands it on within
    /// the same call, and a standalone core, which owns every switch it
    /// knows, drops it.
    pub(crate) fn receive(
        &mut self,
        from: SwitchId,
        bytes: &[u8],
    ) -> (Vec<Outgoing>, Vec<ControllerEvent>, Option<Handoff>) {
        let mut out = Vec::new();
        // Every frame but a served request or an unmatched key-exchange
        // leg pushes at least one event, an accepted reply exactly one.
        let mut events = Vec::with_capacity(1);
        let Ok(msg) = Message::decode(bytes) else {
            // Framing garbage carries no verifiable sender claim:
            // classify as transport-malformed, not BadDigest, so it can
            // neither inflate `auth_reject_bad_digest` nor drive the
            // defence loop toward a needless key rollover.
            self.note_reject(from, RejectReason::Malformed, &mut events);
            return (out, events, None);
        };

        // Quarantined channels drop everything except key exchange — the
        // key-management protocol is the quarantine's exit path.
        if self.defence_quarantined(from, PortId::CPU)
            && !matches!(msg.body(), Body::KeyExchange(_))
        {
            self.note_reject(from, RejectReason::Quarantined, &mut events);
            return (out, events, None);
        }

        if self.config.auth_enabled {
            // The channel's key rule picks the generation and its window;
            // responses echo their request's number and are matched
            // through the outstanding set instead. A `Salt2` verifies only
            // bound to the `Salt1` this end is waiting on.
            let transcript = match msg.body() {
                Body::KeyExchange(KeyExchange::EakSalt {
                    step: EakStep::Salt2,
                    ..
                }) => Some(match self.exchanges.get(Slot::Local(from)) {
                    Some(InFlight {
                        exchange: Exchange::Eak(_, eak),
                        ..
                    }) => Some(eak::transcript(eak.salt1())),
                    _ => None,
                }),
                _ => None,
            };
            let mac = &self.mac;
            let result = match self.switches.get_mut(&from) {
                Some(chan) => chan.end.open(&msg, |key| match transcript {
                    None => verify_frame(mac, key, bytes),
                    Some(Some(salt1)) => verify_bound_frame(mac, key, bytes, &salt1),
                    Some(None) => false,
                }),
                None => Err(RejectReason::NoKey),
            };
            match result {
                Err(reason) => {
                    self.note_reject(from, reason, &mut events);
                    if let Some(t) = &self.telemetry {
                        t.trace_instant(
                            SpanKind::DigestReject,
                            self.now_ns,
                            u64::from(from.value()),
                            u64::from(PortId::CPU.value()),
                        );
                        if let RejectReason::Replayed { last_accepted } = reason {
                            t.registry.record(
                                self.now_ns,
                                TelemetryEvent::ReplayDetected {
                                    peer: from.value(),
                                    channel: PortId::CPU.value(),
                                    last_accepted: last_accepted.value() as u64,
                                    got: msg.header().seq_num.value() as u64,
                                },
                            );
                        }
                    }
                    // Forged digests and replays on this channel feed the
                    // defence loop. NoKey does not: it reflects bootstrap
                    // state, not an attack with a key to roll away from.
                    if matches!(
                        reason,
                        RejectReason::BadDigest | RejectReason::Replayed { .. }
                    ) {
                        self.count_channel_reject(from, PortId::CPU);
                        self.drive_defence(from, PortId::CPU, &mut out, &mut events);
                    }
                    return (out, events, None);
                }
                Ok(_) => {
                    if let Some(t) = &self.telemetry {
                        t.auth.record_verify(&Ok(()));
                    }
                }
            }
        } else if !self.switches.contains_key(&from) {
            // Nothing verified the sender, and no channel exists to answer
            // on: fail closed with the verdict auth-on mode gives it.
            self.note_reject(from, RejectReason::NoKey, &mut events);
            return (out, events, None);
        }

        match *msg.body() {
            Body::Register(op) => {
                let header = msg.header();
                let sent_as = (header.key_version, header.seq_num);
                self.on_register_response(from, sent_as, op, &mut out, &mut events);
            }
            Body::Alert(alert) => {
                self.stats.alerts += 1;
                self.push_alert(from, alert.kind);
                if let Some(t) = &self.telemetry {
                    t.alerts_received.inc();
                }
                events.push(ControllerEvent::AlertReceived {
                    switch: from,
                    kind: alert.kind,
                });
                // An authenticated alert is a defence signal for the
                // channel the agent flagged: `detail` carries the ingress
                // port for in-network rejects and 0 (the CPU channel) for
                // C-DP register traffic.
                let channel = PortId::new(alert.detail.min(u32::from(u8::MAX)) as u8);
                self.count_channel_reject(from, channel);
                self.drive_defence(from, channel, &mut out, &mut events);
            }
            Body::KeyExchange(kex) => {
                let handoff = self.on_key_exchange(from, &msg, kex, &mut out, &mut events);
                return (out, events, handoff);
            }
            Body::InNetwork(_) => { /* DP-DP traffic never reaches C */ }
        }
        (out, events, None)
    }

    /// Delivers a register response sent as `(version, seq)` to the
    /// request it answers; then, if the local key has sealed
    /// [`SEQ_HIGH_WATER`] frames and no exchange is running, starts its
    /// rollover.
    fn on_register_response(
        &mut self,
        from: SwitchId,
        (version, seq): (KeyVersion, SeqNum),
        op: RegisterOp,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<ControllerEvent>,
    ) {
        // Only the two response variants have an outcome to deliver. The
        // controller serves no requests: one that authenticates (its own
        // frame reflected back, say) is counted and dropped before it can
        // touch `outstanding`.
        let outcome = match op {
            RegisterOp::ReadReq { .. } | RegisterOp::WriteReq { .. } => {
                self.stats.requests_ignored += 1;
                return;
            }
            RegisterOp::Ack { value, .. } => Ok(value),
            RegisterOp::Nack { reason, .. } => Err(reason),
        };
        let chan = self.channel_mut(from);
        let Some(pending) = chan.outstanding.remove(version, seq) else {
            events.push(ControllerEvent::UnmatchedResponse(from));
            return;
        };
        let outstanding = chan.outstanding.len() as u32;
        let spent = chan.end.keys().is_installed()
            && chan.end.last_sent().1.value() >= SEQ_HIGH_WATER
            && !self.kex_in_flight(from);
        self.stats.responses_ok += 1;
        if let Some(t) = &self.telemetry {
            t.responses_ok.inc();
            t.outstanding.sub(1);
            t.register_op_ns
                .record(self.now_ns.saturating_sub(pending.sent_at_ns));
        }
        events.push(match outcome {
            Ok(_) if pending.is_write => ControllerEvent::WriteAcked {
                switch: from,
                reg: pending.reg,
                index: pending.index,
            },
            Ok(value) => ControllerEvent::ValueRead {
                switch: from,
                reg: pending.reg,
                index: pending.index,
                value,
            },
            Err(reason) => ControllerEvent::Nacked {
                switch: from,
                reason,
            },
        });
        if outstanding > OUTSTANDING_THRESHOLD {
            events.push(ControllerEvent::DosSuspected {
                switch: from,
                outstanding,
            });
        }
        if spent {
            out.extend(self.local_key_update(from));
        }
    }

    /// Steps the key exchange a verified `kex` leg from `from` belongs to;
    /// returns a redirect leg that another core must finish.
    fn on_key_exchange(
        &mut self,
        from: SwitchId,
        msg: &Message,
        kex: KeyExchange,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<ControllerEvent>,
    ) -> Option<Handoff> {
        match kex {
            KeyExchange::EakSalt {
                step: EakStep::Salt2,
                salt,
            } => {
                let Some(InFlight {
                    exchange: Exchange::Eak(_, eak),
                    ..
                }) = self.exchanges.get_mut(Slot::Local(from))
                else {
                    return None;
                };
                let k_auth = eak.on_salt2(salt, &self.kdf);
                self.channel_mut(from).end.set_auth_key(k_auth);
                events.push(ControllerEvent::AuthKeyEstablished(from));
                if let Some(t) = &self.telemetry {
                    t.kex_step(self.now_ns, "eak_salt2");
                    t.trace_instant(SpanKind::KmpOffer, self.now_ns, u64::from(from.value()), 0);
                }
                // Continue Fig. 14(a): ADHKD offer under K_auth, in the EAK's
                // place. The exchange made progress, so its retry budget
                // resets.
                out.push(self.start_offer(from, KexContext::LocalInit));
            }
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                ..
            } => {
                // Switches never initiate EAK toward the controller.
            }
            KeyExchange::Adhkd {
                role: AdhkdRole::Answer,
                context,
                public_key,
                salt,
            } if context == KexContext::LocalInit || context == KexContext::LocalUpdate => {
                let slot = Slot::Local(from);
                let pending = self.exchanges.get(slot).map(|x| &x.exchange);
                if !matches!(pending, Some(&Exchange::Offer(_, c, ..)) if c == context) {
                    return None;
                }
                if let Some(Exchange::Offer(_, _, init, _)) =
                    self.exchanges.remove(slot).map(|x| x.exchange)
                {
                    let master = init.finish(
                        AdhkdPayload {
                            public_key: DhPublic::from_raw(public_key),
                            salt,
                        },
                        &self.kdf,
                    );
                    let rolled = context.rolls();
                    self.rekey(from, master, rolled);
                    events.push(if rolled {
                        ControllerEvent::LocalKeyRolled(from)
                    } else {
                        ControllerEvent::LocalKeyInstalled(from)
                    });
                    let version = self.channel_mut(from).end.keys().version().value();
                    if let Some(t) = &self.telemetry {
                        if rolled {
                            t.key_rollovers.inc();
                        } else {
                            t.key_installs.inc();
                        }
                        t.registry.record(
                            self.now_ns,
                            TelemetryEvent::KeyDerived {
                                switch: from.value(),
                                port: PortId::CPU.value(),
                                version,
                            },
                        );
                        t.kex_step(self.now_ns, "adhkd_answer");
                        t.trace_instant(
                            SpanKind::KmpAnswer,
                            self.now_ns,
                            u64::from(from.value()),
                            u64::from(rolled),
                        );
                        t.trace_instant(
                            SpanKind::KeyInstall,
                            self.now_ns,
                            u64::from(from.value()),
                            u64::from(version),
                        );
                    }
                    // A fresh local key completes (and lifts) any defence
                    // mitigation in flight on this channel.
                    self.complete_mitigation(from, PortId::CPU);
                }
            }
            KeyExchange::Adhkd {
                role,
                context: KexContext::PortInitRedirect,
                public_key,
                salt,
            } => {
                // Both legs carry the sender's local exchange port in the
                // header, and matching must use it: a correlated link
                // recovery starts several exchanges that share a switch,
                // and switch-only matching would cross their legs.
                let leg = RedirectLeg {
                    from: (from, msg.header().port),
                    role,
                    public_key,
                    salt,
                };
                return self.redirect(leg, out, events);
            }
            _ => {}
        }
        None
    }

    /// Fig. 14 c: forwards a verified redirect leg by the pending redirect
    /// that awaits it, toward the other data plane. The answer leg ends
    /// the redirect (this link's only: concurrent exchanges between the
    /// same switch pair on other ports stay pending). The controller never
    /// learns the port key: `public_key` and `salt` are public values.
    /// Hands the leg back when no redirect here awaits it, or when another
    /// core owns its destination and must seal it.
    pub(crate) fn redirect(
        &mut self,
        leg: RedirectLeg,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<ControllerEvent>,
    ) -> Option<Handoff> {
        let Some((slot, to)) = self.redirect_for(leg.role, leg.from) else {
            return Some(Handoff::Unclaimed(leg));
        };
        if leg.role == AdhkdRole::Answer {
            self.exchanges.remove(slot);
        }
        let from = leg.from.0;
        events.push(ControllerEvent::PortExchangeRedirected { from, to: to.0 });
        if let Some(t) = &self.telemetry {
            t.kex_step(self.now_ns, "adhkd_redirect");
        }
        match self.seal_leg(leg, to) {
            Some(frame) => {
                out.push(frame);
                None
            }
            None => Some(Handoff::Seal(leg, to)),
        }
    }

    /// `leg` as the next frame toward `to`, a `(switch, exchange port)`,
    /// if this core owns its switch: it keeps its sender, carries the
    /// receiver's port, and is numbered afresh in the receiver's current
    /// generation (a number belongs to one key's sequence space, and the
    /// sender's is not the receiver's).
    pub(crate) fn seal_leg(
        &mut self,
        leg: RedirectLeg,
        to: (SwitchId, PortId),
    ) -> Option<Outgoing> {
        let kex = KeyExchange::Adhkd {
            role: leg.role,
            context: KexContext::PortInitRedirect,
            public_key: leg.public_key,
            salt: leg.salt,
        };
        let fwd = Message::new(leg.from.0, to.1, SeqNum::default(), Body::KeyExchange(kex));
        let (auth, mac) = (self.config.auth_enabled, &self.mac);
        let end = &mut self.switches.get_mut(&to.0)?.end;
        let bytes = match auth {
            true => (end.seal(None, fwd, |key, parts| mac.compute(key, parts)))
                .unwrap_or_else(|fwd| fwd.encode()),
            false => fwd.encode(),
        };
        Some(Outgoing { to: to.0, bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller_with_switch() -> (Controller, SwitchId) {
        let mut c = Controller::new(ControllerConfig::default());
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0x5eed));
        (c, sw)
    }

    #[test]
    fn read_request_is_sealed_once_key_exists() {
        let (mut c, sw) = controller_with_switch();
        // Before any key: request goes out unsigned (nothing to seal with),
        // and no generation exists to answer it under, so nothing waits.
        let out = c.read_register(sw, RegId::new(1), 0);
        let msg = Message::decode(&out.bytes).unwrap();
        assert_eq!(msg.digest().value(), 0);
        assert_eq!(c.outstanding(sw), 0);
        assert_eq!(c.stats().requests_sent, 1);
        c.rekey(sw, Key64::new(1), false);
        let out = c.read_register(sw, RegId::new(1), 0);
        assert!(verify_frame(
            &HalfSipHashMac::default(),
            Key64::new(1),
            &out.bytes
        ));
        assert_eq!(c.outstanding(sw), 1);
    }

    #[test]
    fn eak_start_produces_sealed_salt1() {
        let (mut c, sw) = controller_with_switch();
        let out = c.local_key_init(sw);
        assert_eq!(out.len(), 1);
        let msg = Message::decode(&out[0].bytes).unwrap();
        assert!(msg.verify(&HalfSipHashMac::default(), Key64::new(0x5eed)));
        assert!(matches!(
            msg.body(),
            Body::KeyExchange(KeyExchange::EakSalt {
                step: EakStep::Salt1,
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_switch_rejected() {
        let (mut c, sw) = controller_with_switch();
        c.register_switch(sw, Key64::new(1));
    }

    #[test]
    #[should_panic(expected = "before init")]
    fn update_before_init_panics() {
        let (mut c, sw) = controller_with_switch();
        let _ = c.local_key_update(sw);
    }

    #[test]
    fn garbage_bytes_rejected_as_malformed() {
        let (mut c, sw) = controller_with_switch();
        let (_, events) = c.on_message(sw, &[1, 2, 3]);
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::Malformed,
                ..
            }
        ));
        assert_eq!(c.stats().rejected, 1);
    }

    /// Regression: framing garbage used to be classified as `BadDigest`,
    /// inflating `auth_reject_bad_digest`; with the defence loop attached
    /// it would now also trigger a needless key rollover. Malformed
    /// frames must do neither.
    #[test]
    fn malformed_frames_neither_count_bad_digest_nor_trigger_defence() {
        let registry = Arc::new(Registry::with_event_capacity(64));
        let (mut c, sw) = controller_with_switch();
        c.set_telemetry(registry.clone());
        c.enable_defence(crate::defence::DefenceConfig {
            window_ns: 1_000_000_000,
            reject_threshold: 2,
            escalation_window_ns: 1_000_000_000,
        });
        // A truncated (but genuine) frame and pure garbage, repeatedly —
        // far past the reject threshold.
        let genuine = Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(1),
            Body::Register(RegisterOp::read_req(RegId::new(1), 0)),
        )
        .encode();
        for i in 0..10u64 {
            c.set_now(1_000 + i);
            let frame: &[u8] = if i % 2 == 0 {
                &genuine[..10]
            } else {
                &[0xff; 7]
            };
            let (out, events) = c.on_message(sw, frame);
            assert!(out.is_empty(), "malformed frames must not provoke traffic");
            assert_eq!(events.len(), 1);
            assert!(matches!(
                events[0],
                ControllerEvent::Rejected {
                    reason: RejectReason::Malformed,
                    ..
                }
            ));
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("auth_reject_malformed", "controller"),
            Some(10)
        );
        assert_eq!(
            snap.counter("auth_reject_bad_digest", "controller"),
            Some(0)
        );
        assert_eq!(
            snap.counter("ctrl_defence_mitigations", "controller"),
            Some(0)
        );
        assert_eq!(c.stats().defence_mitigations, 0);
    }

    use p4auth_core::agent::{AgentConfig, P4AuthSwitch};

    /// Ping-pongs key-exchange traffic between controller and agent until
    /// neither side has anything left to say.
    fn pump(
        c: &mut Controller,
        sw: SwitchId,
        agent: &mut P4AuthSwitch,
        mut pending: Vec<Outgoing>,
    ) {
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds < 64, "key exchange did not converge");
            let mut next = Vec::new();
            for o in pending {
                let output = agent.on_packet(0, PortId::CPU, &o.bytes);
                for (_, bytes) in output.outputs {
                    let (more, _) = c.on_message(sw, &bytes);
                    next.extend(more);
                }
            }
            pending = next;
        }
    }

    /// Controller + agent with an established local key and the defence
    /// loop armed (threshold 3 inside a 1 ms window).
    fn defended_pair(registry: &Arc<Registry>) -> (Controller, SwitchId, P4AuthSwitch) {
        let mut c = Controller::new(ControllerConfig::default());
        c.set_telemetry(registry.clone());
        let sw = SwitchId::new(1);
        let k_seed = Key64::new(0x5eed);
        c.register_switch(sw, k_seed);
        c.enable_defence(crate::defence::DefenceConfig {
            window_ns: 1_000_000,
            reject_threshold: 3,
            escalation_window_ns: 100_000_000,
        });
        let mut agent = P4AuthSwitch::new(AgentConfig::new(sw, 4, k_seed), None);
        let init = c.local_key_init(sw);
        pump(&mut c, sw, &mut agent, init);
        assert!(c.has_local_key(sw), "bootstrap failed");
        (c, sw, agent)
    }

    fn forged(sw: SwitchId, seq: u32) -> Vec<u8> {
        // Well-formed but unsigned: decodes fine, fails digest verification.
        Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(seq),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(1),
                index: 0,
                value: 0,
            }),
        )
        .encode()
    }

    #[test]
    fn forged_digest_flood_triggers_exactly_one_rollover() {
        let registry = Arc::new(Registry::with_event_capacity(256));
        let (mut c, sw, mut agent) = defended_pair(&registry);

        let mut mitigations = Vec::new();
        let mut rollover_msgs = Vec::new();
        for i in 0..6u64 {
            c.set_now(10_000 + i * 100);
            let (out, events) = c.on_message(sw, &forged(sw, 100 + i as u32));
            rollover_msgs.extend(out);
            mitigations.extend(
                events
                    .into_iter()
                    .filter(|e| matches!(e, ControllerEvent::DefenceMitigated { .. })),
            );
        }
        // Hysteresis: six rejects, one threshold crossing, one action.
        assert_eq!(mitigations.len(), 1);
        assert!(matches!(
            mitigations[0],
            ControllerEvent::DefenceMitigated {
                kind: MitigationKind::KeyRollover,
                ..
            }
        ));
        assert_eq!(rollover_msgs.len(), 1, "exactly one ADHKD offer issued");
        assert_eq!(c.stats().defence_mitigations, 1);

        // Complete the rollover; detection-to-mitigation latency lands in
        // the histogram.
        c.set_now(60_000);
        pump(&mut c, sw, &mut agent, rollover_msgs);
        let snap = registry.snapshot();
        let hist = snap
            .histogram("defence_mitigation_latency_ns", "controller")
            .expect("latency histogram registered");
        assert_eq!(hist.count, 1);
        // Detected at 10_200 (third reject), completed at 60_000.
        assert_eq!(hist.min, 49_800);
        assert_eq!(snap.counter("ctrl_key_rollovers", "controller"), Some(1));
    }

    #[test]
    fn persistent_flood_escalates_to_quarantine_and_fresh_key_lifts_it() {
        let registry = Arc::new(Registry::with_event_capacity(256));
        let (mut c, sw, mut agent) = defended_pair(&registry);

        // Round 1: flood to the threshold, complete the rollover.
        let mut out1 = Vec::new();
        for i in 0..3u64 {
            c.set_now(10_000 + i * 100);
            let (out, _) = c.on_message(sw, &forged(sw, 100 + i as u32));
            out1.extend(out);
        }
        c.set_now(60_000);
        pump(&mut c, sw, &mut agent, out1);
        assert!(!c.defence_quarantined(sw, PortId::CPU));

        // Round 2: the attack continues — escalate to quarantine.
        let mut out2 = Vec::new();
        let mut events2 = Vec::new();
        for i in 0..3u64 {
            c.set_now(70_000 + i * 100);
            let (out, events) = c.on_message(sw, &forged(sw, 200 + i as u32));
            out2.extend(out);
            events2.extend(events);
        }
        assert!(events2.iter().any(|e| matches!(
            e,
            ControllerEvent::DefenceMitigated {
                kind: MitigationKind::Quarantine,
                ..
            }
        )));
        assert!(c.defence_quarantined(sw, PortId::CPU));

        // While quarantined, traffic on the channel is dropped and counted
        // as Quarantined — not as a digest failure.
        c.set_now(80_000);
        let (out, events) = c.on_message(sw, &forged(sw, 300));
        assert!(out.is_empty());
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::Quarantined,
                ..
            }
        ));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("auth_reject_quarantined", "controller"),
            Some(1)
        );

        // Key exchange is exempt (it is the exit path): completing the
        // rollover issued alongside the quarantine lifts it.
        c.set_now(90_000);
        pump(&mut c, sw, &mut agent, out2);
        assert!(!c.defence_quarantined(sw, PortId::CPU));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ctrl_key_rollovers", "controller"), Some(2));
        assert_eq!(
            snap.histogram("defence_mitigation_latency_ns", "controller")
                .unwrap()
                .count,
            2
        );
    }

    /// A defence-initiated rollover whose offer is lost on the wire is
    /// re-driven by `retry_stalled` and still completes exactly once.
    #[test]
    fn retry_stalled_redrives_lost_defence_rollover() {
        let registry = Arc::new(Registry::with_event_capacity(256));
        let (mut c, sw, mut agent) = defended_pair(&registry);

        let mut lost = Vec::new();
        for i in 0..3u64 {
            c.set_now(10_000 + i * 100);
            let (out, _) = c.on_message(sw, &forged(sw, 100 + i as u32));
            lost.extend(out);
        }
        assert_eq!(lost.len(), 1);
        drop(lost); // the ADHKD offer never arrives

        c.set_now(500_000);
        let retried = c.retry_stalled();
        assert_eq!(retried.len(), 1, "stalled defence rollover re-driven");
        c.set_now(550_000);
        pump(&mut c, sw, &mut agent, retried);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("ctrl_key_rollovers", "controller"), Some(1));
        assert_eq!(
            snap.counter("ctrl_defence_mitigations", "controller"),
            Some(1)
        );
        assert_eq!(
            snap.histogram("defence_mitigation_latency_ns", "controller")
                .unwrap()
                .count,
            1
        );
        assert!(!c.defence_quarantined(sw, PortId::CPU));
    }

    #[test]
    fn alert_ring_is_bounded_and_counts_drops() {
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            ..ControllerConfig::default()
        });
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0));
        let sent = ALERT_CAPACITY as u32 + 1;
        for i in 1..=sent {
            let msg = Message::new(
                sw,
                PortId::CPU,
                SeqNum::new(i),
                Body::Alert(p4auth_wire::body::Alert {
                    kind: AlertKind::DigestMismatch,
                    offending_seq: SeqNum::new(i),
                    detail: 0,
                }),
            );
            c.on_message(sw, &msg.encode());
        }
        assert_eq!(c.alerts().len(), ALERT_CAPACITY);
        assert_eq!(c.stats().alerts, u64::from(sent));
        assert_eq!(c.stats().alerts_dropped, 1);
    }

    #[test]
    fn unsigned_response_rejected_when_auth_enabled() {
        let (mut c, sw) = controller_with_switch();
        // Give the controller a local key by faking the slot directly via
        // the full handshake path in integration tests; here we check the
        // NoKey path: a response arrives before any key exists.
        let fake = Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(1),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(1),
                index: 0,
                value: 9,
            }),
        );
        let (_, events) = c.on_message(sw, &fake.encode());
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::NoKey,
                ..
            }
        ));
    }

    #[test]
    fn unknown_switch_message_rejected() {
        let mut c = Controller::new(ControllerConfig::default());
        let msg = Message::new(
            SwitchId::new(9),
            PortId::CPU,
            SeqNum::new(1),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(1),
                index: 0,
                value: 0,
            }),
        );
        let (_, events) = c.on_message(SwitchId::new(9), &msg.encode());
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::NoKey,
                ..
            }
        ));
    }

    /// With auth off nothing screens a sender the transport names, so a
    /// frame from a switch that was never registered reached
    /// `channel_mut`'s `panic!` or a `.expect("verified channel exists")`.
    /// It gets auth-on mode's verdict instead, and no channel.
    fn unregistered_sender_fails_closed(body: Body) {
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            ..ControllerConfig::default()
        });
        c.register_switch(SwitchId::new(1), Key64::new(0));
        let stranger = SwitchId::new(9);
        let frame = Message::new(stranger, PortId::CPU, SeqNum::new(1), body).encode();
        let (out, events) = c.on_message(stranger, &frame);
        assert!(out.is_empty());
        assert_eq!(
            events,
            [ControllerEvent::Rejected {
                switch: stranger,
                reason: RejectReason::NoKey,
            }]
        );
        assert!(!c.switches.contains_key(&stranger));
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn auth_off_register_response_from_an_unregistered_switch_is_rejected() {
        unregistered_sender_fails_closed(Body::Register(RegisterOp::Ack {
            reg: RegId::new(1),
            index: 0,
            value: 0,
        }));
    }

    #[test]
    fn auth_off_eak_salt_from_an_unregistered_switch_is_rejected() {
        unregistered_sender_fails_closed(Body::KeyExchange(KeyExchange::EakSalt {
            step: EakStep::Salt2,
            salt: 7,
        }));
    }

    #[test]
    fn auth_off_adhkd_answer_from_an_unregistered_switch_is_rejected() {
        unregistered_sender_fails_closed(Body::KeyExchange(KeyExchange::Adhkd {
            role: AdhkdRole::Answer,
            context: KexContext::LocalInit,
            public_key: 5,
            salt: 6,
        }));
    }

    #[test]
    fn baseline_mode_accepts_unsigned_responses() {
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            ..ControllerConfig::default()
        });
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0));
        let out = c.read_register(sw, RegId::new(5), 2);
        let req = Message::decode(&out.bytes).unwrap();
        let resp = Message::new(
            sw,
            PortId::CPU,
            req.header().seq_num,
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(5),
                index: 2,
                value: 77,
            }),
        );
        let (_, events) = c.on_message(sw, &resp.encode());
        assert_eq!(
            events[0],
            ControllerEvent::ValueRead {
                switch: sw,
                reg: RegId::new(5),
                index: 2,
                value: 77
            }
        );
        assert_eq!(c.outstanding(sw), 0);
    }

    #[test]
    fn telemetry_measures_register_op_latency_in_sim_ns() {
        let registry = Arc::new(Registry::with_event_capacity(16));
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            ..ControllerConfig::default()
        });
        c.set_telemetry(registry.clone());
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0));

        c.set_now(1_000);
        let out = c.read_register(sw, RegId::new(5), 2);
        let req = Message::decode(&out.bytes).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ctrl_requests_sent", "controller"), Some(1));
        assert_eq!(
            snap.gauges
                .iter()
                .find(|g| g.name == "ctrl_outstanding")
                .map(|g| g.value),
            Some(1)
        );

        c.set_now(51_000);
        let resp = Message::new(
            sw,
            PortId::CPU,
            req.header().seq_num,
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(5),
                index: 2,
                value: 7,
            }),
        );
        c.on_message(sw, &resp.encode());

        let snap = registry.snapshot();
        assert_eq!(snap.counter("ctrl_responses_ok", "controller"), Some(1));
        assert_eq!(
            snap.gauges
                .iter()
                .find(|g| g.name == "ctrl_outstanding")
                .map(|g| g.value),
            Some(0)
        );
        let hist = snap.histogram("ctrl_register_op_ns", "controller").unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.min, 50_000);
        assert_eq!(hist.max, 50_000);
    }

    #[test]
    fn unmatched_response_flagged() {
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            ..ControllerConfig::default()
        });
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0));
        let resp = Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(42),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(5),
                index: 0,
                value: 0,
            }),
        );
        let (_, events) = c.on_message(sw, &resp.encode());
        assert_eq!(events[0], ControllerEvent::UnmatchedResponse(sw));
    }

    /// A controller whose channel to `sw` holds local key `k`.
    fn keyed_controller(k: Key64) -> (Controller, SwitchId) {
        let (mut c, sw) = controller_with_switch();
        c.rekey(sw, k, false);
        (c, sw)
    }

    /// The local key [`port_defended`] installs and [`port_alerts`] seals with.
    const PORT_DEFENDED_KEY: Key64 = Key64::new(0xfeed);

    /// Controller with the defence armed at threshold 3.
    fn port_defended(registry: &Arc<Registry>) -> (Controller, SwitchId) {
        let (mut c, sw) = keyed_controller(PORT_DEFENDED_KEY);
        c.set_telemetry(registry.clone());
        c.enable_defence(crate::defence::DefenceConfig {
            window_ns: 1_000_000,
            reject_threshold: 3,
            escalation_window_ns: 100_000_000,
        });
        (c, sw)
    }

    /// Delivers a threshold's worth (3) of authenticated alerts from `sw`
    /// flagging ingress `port` (`seq` keeps rising across calls, as the
    /// replay window demands); returns the mitigations they caused and the
    /// frames the core sent.
    fn port_alerts(
        c: &mut Controller,
        sw: SwitchId,
        seq: &mut u32,
        port: u8,
    ) -> (Vec<MitigationKind>, Vec<Outgoing>) {
        let (mut fired, mut sent) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            *seq += 1;
            let alert = Message::new(
                sw,
                PortId::CPU,
                SeqNum::new(*seq),
                Body::Alert(p4auth_wire::body::Alert {
                    kind: AlertKind::DigestMismatch,
                    offending_seq: SeqNum::new(*seq),
                    detail: u32::from(port),
                }),
            )
            .encode_sealed(&HalfSipHashMac::default(), PORT_DEFENDED_KEY);
            c.set_now(u64::from(*seq) * 100);
            let (out, events) = c.on_message(sw, &alert);
            sent.extend(out);
            fired.extend(events.iter().filter_map(|e| match e {
                ControllerEvent::DefenceMitigated { kind, .. } => Some(*kind),
                _ => None,
            }));
        }
        (fired, sent)
    }

    /// The `portKeyUpdate` a mitigation on `(sw, port)` sends toward `peer`.
    fn port_key_update_to(peer: SwitchId, port: PortId) -> Body {
        Body::KeyExchange(KeyExchange::PortKeyUpdate {
            peer,
            peer_port: port,
        })
    }

    /// The core applies a port-channel mitigation itself: the crossing's
    /// `on_message` returns the Fig. 14 d `portKeyUpdate` toward the
    /// switch a port-key init named behind the port, and that port's
    /// fresh key completes the mitigation.
    #[test]
    fn a_port_channel_crossing_sends_the_port_key_update() {
        let registry = Arc::new(Registry::new());
        let (mut c, sw) = port_defended(&registry);
        let (mut seq, port, peer) = (0, PortId::new(1), SwitchId::new(2));
        assert_eq!(c.port_key_init(sw, port, peer, PortId::new(3)).len(), 1);
        let (fired, sent) = port_alerts(&mut c, sw, &mut seq, 1);
        assert_eq!(fired, [MitigationKind::KeyRollover]);
        assert_eq!(sent.len(), 1, "one portKeyUpdate");
        assert_eq!(sent[0].to, sw);
        let update = Message::decode(&sent[0].bytes).unwrap();
        assert_eq!(*update.body(), port_key_update_to(peer, port));
        assert!(c.defence_in_flight(sw, port));
        c.notify_port_key_installed(sw, port);
        assert!(!c.defence_in_flight(sw, port));
        let latency = registry
            .snapshot()
            .histogram("defence_mitigation_latency_ns", "controller")
            .map_or(0, |h| h.count);
        assert_eq!(latency, 1, "the mitigation completed");
    }

    /// A crossing on a port no port-key init ever named has no peer to
    /// update: it aborts, as the CPU branch does with no key yet, so the
    /// channel answers its next crossing instead of ignoring it for good.
    #[test]
    fn a_port_channel_crossing_with_no_known_peer_aborts() {
        let registry = Arc::new(Registry::new());
        let (mut c, sw) = port_defended(&registry);
        let mut seq = 0;
        for _ in 0..2 {
            let (fired, sent) = port_alerts(&mut c, sw, &mut seq, 1);
            assert_eq!(fired, [MitigationKind::KeyRollover]);
            assert!(sent.is_empty(), "no peer to send a portKeyUpdate to");
            assert!(!c.defence_in_flight(sw, PortId::new(1)));
        }
        assert_eq!(c.stats().defence_mitigations, 2);
    }

    /// Fig. 14 d's exchange is re-driven and abandoned like the others: a
    /// port-channel mitigation whose `portKeyUpdate` is lost re-sends it on
    /// the retry backoff, and once the budget is spent abandons it, so the
    /// channel answers the next flood instead of ignoring it for good.
    #[test]
    fn a_lost_port_key_update_is_redriven_then_abandoned() {
        let registry = Arc::new(Registry::new());
        let (mut c, sw) = port_defended(&registry);
        let (mut seq, port, peer) = (0, PortId::new(1), SwitchId::new(2));
        c.learn_link((sw, port), (peer, PortId::new(3)));
        let (fired, lost) = port_alerts(&mut c, sw, &mut seq, 1);
        assert_eq!(fired, [MitigationKind::KeyRollover]);
        assert_eq!(lost.len(), 1, "the portKeyUpdate, then lost");
        let update = port_key_update_to(peer, port);
        let mut at = c.now_ns;
        for attempt in 0..KEX_RETRY_MAX_ATTEMPTS {
            let delay = KEX_RETRY_BACKOFF_NS << attempt;
            c.set_now(at + delay - 1);
            assert!(c.retry_stalled().is_empty(), "backing off, retry {attempt}");
            at += delay;
            c.set_now(at);
            let retried = c.retry_stalled();
            assert_eq!(retried.len(), 1, "retry {attempt}");
            assert_eq!(retried[0].to, sw);
            assert_eq!(*Message::decode(&retried[0].bytes).unwrap().body(), update);
            assert!(c.defence_in_flight(sw, PortId::new(1)));
        }
        c.set_now(at + (KEX_RETRY_BACKOFF_NS << KEX_RETRY_MAX_ATTEMPTS) - 1);
        assert!(c.retry_stalled().is_empty(), "backing off, last budget");
        assert_eq!(c.stats().kex_abandoned, 0);
        c.set_now(at + (KEX_RETRY_BACKOFF_NS << KEX_RETRY_MAX_ATTEMPTS));
        assert!(c.retry_stalled().is_empty(), "abandoned, not re-sent");
        assert_eq!(c.stats().kex_abandoned, 1);
        assert_eq!(
            c.alerts().back(),
            Some(&(sw, AlertKind::KeyExchangeFailure))
        );
        assert!(!c.defence_in_flight(sw, port), "the mitigation aborted");
        let (fired, sent) = port_alerts(&mut c, sw, &mut seq, 1);
        assert_eq!(
            fired,
            [MitigationKind::KeyRollover],
            "the next crossing fires again"
        );
        assert_eq!(sent.len(), 1, "with a fresh portKeyUpdate");
    }

    /// A direct port-key update ends with its initiator's install notice,
    /// not the responder's, and while it is in flight a second update from
    /// the same end sends nothing.
    #[test]
    fn a_port_key_update_ends_at_its_initiators_install() {
        let (mut c, sw) = keyed_controller(Key64::new(0xfeed));
        let (port, peer) = (PortId::new(1), SwitchId::new(2));
        assert_eq!(c.port_key_update(sw, port, peer).len(), 1);
        assert!(
            c.port_key_update(sw, port, peer).is_empty(),
            "one in flight"
        );
        c.notify_port_key_installed(peer, PortId::new(3));
        assert!(c.retry_stalled().is_empty(), "backing off");
        c.set_now(c.now_ns + KEX_RETRY_BACKOFF_NS);
        assert_eq!(c.retry_stalled().len(), 1, "the responder's install");
        c.notify_port_key_installed(sw, port);
        c.set_now(10 * KEX_RETRY_BACKOFF_NS);
        assert!(c.retry_stalled().is_empty());
        assert_eq!(c.port_key_update(sw, port, peer).len(), 1, "the next one");
    }

    /// ROADMAP 8: the response path once ended in `unreachable!("requests
    /// filtered above")`. A request that *authenticates* at the controller
    /// is reachable from the wire — a MitM only has to reflect the
    /// controller's own frame — so it is a counted drop, not an invariant.
    #[test]
    fn authenticated_requests_addressed_to_the_controller_are_counted_and_ignored() {
        let k = Key64::new(0xfeed);
        let (mut c, sw) = keyed_controller(k);
        // Its own sealed requests, reflected back at it.
        let read = c.read_register(sw, RegId::new(1), 0);
        let write = c.write_register(sw, RegId::new(1), 0, 9);
        // And one a peer holding the key mints with a sequence number that
        // matches an outstanding request.
        let minted = Message::register_request(
            sw,
            SeqNum::new(1),
            RegisterOp::write_req(RegId::new(1), 0, 9),
        )
        .encode_sealed(&HalfSipHashMac::default(), k);
        for frame in [&read.bytes, &write.bytes, &minted] {
            let (out, events) = c.on_message(sw, frame);
            assert!(out.is_empty() && events.is_empty(), "{events:?}");
        }
        assert_eq!(c.stats().requests_ignored, 3);
        assert_eq!(c.stats().rejected, 0, "they did authenticate");
        assert_eq!(c.stats().responses_ok, 0);
        assert_eq!(c.outstanding(sw), 2, "no request may cancel a request");
    }

    /// ROADMAP 2a at the controller: a `Nack`'s reason travels in a
    /// 64-bit field of which the decoder keeps the low byte. Setting any
    /// of the other seven is a digest reject, and — unlike the genuine
    /// `Nack` — leaves the request it answers outstanding. So does a
    /// correctly sealed `Nack` carrying code 1, which no agent sends: it
    /// does not decode, so it is `Malformed`.
    #[test]
    fn nack_with_nonzero_discarded_bytes_is_rejected_and_cancels_nothing() {
        let k = Key64::new(0xfeed);
        let (mut c, sw) = keyed_controller(k);
        let _ = c.read_register(sw, RegId::new(1), 0);
        let nack = Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(1),
            Body::Register(RegisterOp::Nack {
                reg: RegId::new(1),
                index: 0,
                reason: NackReason::UnknownRegister,
            }),
        )
        .encode_sealed(&HalfSipHashMac::default(), k);
        for at in 22..29 {
            let mut tampered = nack.clone();
            tampered[at] = 1;
            assert_eq!(Message::decode(&tampered), Message::decode(&nack));
            let (_, events) = c.on_message(sw, &tampered);
            assert_eq!(
                events,
                [ControllerEvent::Rejected {
                    switch: sw,
                    reason: RejectReason::BadDigest
                }]
            );
        }
        let mut verdict = nack.clone();
        verdict[29] = 1;
        let mac = HalfSipHashMac::default();
        let digest = mac.compute(k, &p4auth_wire::digest_parts(&verdict));
        verdict[10..14].copy_from_slice(&digest.value().to_be_bytes());
        assert!(
            verify_frame(&mac, k, &verdict),
            "sealed under the channel key"
        );
        let (_, events) = c.on_message(sw, &verdict);
        assert_eq!(
            events,
            [ControllerEvent::Rejected {
                switch: sw,
                reason: RejectReason::Malformed
            }]
        );
        assert_eq!(c.outstanding(sw), 1);
        let (_, events) = c.on_message(sw, &nack);
        assert_eq!(
            events,
            [ControllerEvent::Nacked {
                switch: sw,
                reason: NackReason::UnknownRegister
            }]
        );
        assert_eq!(c.outstanding(sw), 0);
    }

    /// The register the restart and counter tests read.
    const PROBE_REG: RegId = RegId::new(7);

    /// A fresh agent for `sw`, as a switch boots: no keys, one register.
    fn booted_agent(sw: SwitchId, k_seed: Key64) -> P4AuthSwitch {
        let config = AgentConfig::new(sw, 4, k_seed).map_register(PROBE_REG, "probe");
        let mut agent = P4AuthSwitch::new(config, None);
        agent
            .chassis_mut()
            .declare_register(p4auth_dataplane::register::RegisterArray::new(
                "probe", 4, 64,
            ));
        agent
    }

    /// A bootstrapped controller and agent after `rollovers` local-key
    /// rollovers, each round with one read in between.
    fn rolled_pair(rollovers: usize) -> (Controller, SwitchId, P4AuthSwitch, Key64) {
        let mut c = Controller::new(ControllerConfig::default());
        let (sw, k_seed) = (SwitchId::new(1), Key64::new(0x5eed));
        c.register_switch(sw, k_seed);
        let mut agent = booted_agent(sw, k_seed);
        let init = c.local_key_init(sw);
        pump(&mut c, sw, &mut agent, init);
        for round in 0..rollovers {
            assert!(read_verifies(&mut c, sw, &mut agent), "read {round}");
            let update = c.local_key_update(sw);
            pump(&mut c, sw, &mut agent, update);
        }
        (c, sw, agent, k_seed)
    }

    /// Sends one read and delivers the answer and any follow-ups; whether
    /// the read came back as a value.
    fn read_verifies(c: &mut Controller, sw: SwitchId, agent: &mut P4AuthSwitch) -> bool {
        let request = c.read_register(sw, PROBE_REG, 0);
        let output = agent.on_packet(0, PortId::CPU, &request.bytes);
        let (mut read, mut follow_ups) = (false, Vec::new());
        for (_, bytes) in output.outputs {
            let (more, events) = c.on_message(sw, &bytes);
            read |= events
                .iter()
                .any(|e| matches!(e, ControllerEvent::ValueRead { .. }));
            follow_ups.extend(more);
        }
        pump(c, sw, agent, follow_ups);
        read
    }

    /// Re-runs local-key init as a harness does after a restart: one
    /// `local_key_init`, then `retry_stalled` every 10 ms for 40 rounds.
    /// Then the keys must agree and a read must verify.
    fn rejoin(c: &mut Controller, sw: SwitchId, agent: &mut P4AuthSwitch) {
        let mut now_ns = 1_000_000_000;
        c.set_now(now_ns);
        let init = c.local_key_init(sw);
        pump(c, sw, agent, init);
        for _ in 0..40 {
            now_ns += 10_000_000;
            c.set_now(now_ns);
            let retries = c.retry_stalled();
            pump(c, sw, agent, retries);
        }
        assert_eq!(c.stats().kex_abandoned, 0, "the rejoin was abandoned");
        let keys = agent.keys(PortId::CPU);
        assert_eq!(
            c.local_key_material(sw),
            keys.current().map(|k| (k, keys.version())),
            "the two ends hold different local keys"
        );
        assert!(read_verifies(c, sw, agent), "a read after the rejoin");
    }

    #[test]
    fn a_rebooted_switch_rejoins_after_20_rollovers() {
        let (mut c, sw, _, k_seed) = rolled_pair(20);
        let mut rebooted = booted_agent(sw, k_seed);
        rejoin(&mut c, sw, &mut rebooted);
    }

    #[test]
    fn a_restarted_controller_rejoins_after_20_rollovers() {
        let (_, sw, mut agent, k_seed) = rolled_pair(20);
        let mut restarted = Controller::new(ControllerConfig::default());
        restarted.register_switch(sw, k_seed);
        rejoin(&mut restarted, sw, &mut agent);
    }

    #[test]
    fn a_channel_survives_its_counter_reaching_u32_max() {
        let (mut c, sw, mut agent, _) = rolled_pair(0);
        c.channel_mut(sw)
            .end
            .fast_forward(SeqNum::new(u32::MAX - 2));
        for i in 0..6 {
            assert!(read_verifies(&mut c, sw, &mut agent), "read {i}");
        }
        assert!(
            c.alerts()
                .iter()
                .all(|&(_, kind)| kind != AlertKind::SeqMismatch),
            "{:?}",
            c.alerts()
        );
        let (_, version) = c.local_key_material(sw).unwrap();
        assert_eq!(
            version,
            KeyVersion::INITIAL.next(),
            "one high-water rollover"
        );
    }

    /// `local_key_init` replaces whatever exchange is in flight on the
    /// channel: once the init has started, an answer to the rollover it
    /// displaced completes nothing, and the init completes.
    #[test]
    fn an_init_replaces_a_rollover_in_flight() {
        let (mut c, sw, mut agent, _) = rolled_pair(0);
        let update = c.local_key_update(sw);
        let init = c.local_key_init(sw);
        let answer = agent.on_packet(0, PortId::CPU, &update[0].bytes).outputs;
        let (out, events) = c.on_message(sw, &answer[0].1);
        assert!(out.is_empty());
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ControllerEvent::LocalKeyRolled(_))),
            "{events:?}"
        );
        assert!(c.kex_in_flight(sw), "the init is still in flight");
        pump(&mut c, sw, &mut agent, init);
        assert!(!c.kex_in_flight(sw));
        let keys = agent.keys(PortId::CPU);
        assert_eq!(
            c.local_key_material(sw),
            keys.current().map(|k| (k, keys.version()))
        );
        assert!(read_verifies(&mut c, sw, &mut agent));
    }

    /// `local_key_update` leaves an init in flight alone: the init brings
    /// the fresh key, so the rollover sends nothing and the init completes.
    #[test]
    fn an_update_leaves_an_init_in_flight() {
        let (mut c, sw, mut agent, _) = rolled_pair(0);
        let init = c.local_key_init(sw);
        assert!(c.local_key_update(sw).is_empty(), "EAK in flight");
        let salt2 = agent.on_packet(0, PortId::CPU, &init[0].bytes).outputs;
        let (offer, _) = c.on_message(sw, &salt2[0].1);
        assert!(
            c.local_key_update(sw).is_empty(),
            "LocalInit offer in flight"
        );
        pump(&mut c, sw, &mut agent, offer);
        assert!(!c.kex_in_flight(sw));
        assert!(read_verifies(&mut c, sw, &mut agent));
    }

    /// A replayed `Salt1` (the one that started the first init) reaches
    /// the agent while a second init is in flight: the agent's `K_auth`
    /// moves on, but the one the init runs under stays as the previous
    /// generation, so the init completes without a retry. The `Salt2`
    /// answering the replay is bound to a `Salt1` the controller no
    /// longer waits on, and fails its digest.
    #[test]
    fn a_replayed_salt1_does_not_strand_an_init_in_flight() {
        let mut c = Controller::new(ControllerConfig::default());
        let (sw, k_seed) = (SwitchId::new(1), Key64::new(0x5eed));
        c.register_switch(sw, k_seed);
        let mut agent = booted_agent(sw, k_seed);
        let first = c.local_key_init(sw);
        let old_salt1 = first[0].bytes.clone();
        pump(&mut c, sw, &mut agent, first);

        let salt1 = c.local_key_init(sw);
        let salt2 = agent.on_packet(0, PortId::CPU, &salt1[0].bytes).outputs;
        let (offer, _) = c.on_message(sw, &salt2[0].1);
        assert_eq!(offer.len(), 1, "the LocalInit offer");
        for (_, stale_salt2) in agent.on_packet(0, PortId::CPU, &old_salt1).outputs {
            let (out, events) = c.on_message(sw, &stale_salt2);
            assert!(out.is_empty());
            assert_eq!(
                events,
                [ControllerEvent::Rejected {
                    switch: sw,
                    reason: RejectReason::BadDigest
                }]
            );
        }
        pump(&mut c, sw, &mut agent, offer);
        assert!(!c.kex_in_flight(sw), "the init completed");
        let keys = agent.keys(PortId::CPU);
        assert_eq!(
            c.local_key_material(sw),
            keys.current().map(|k| (k, keys.version()))
        );
        assert!(read_verifies(&mut c, sw, &mut agent));
    }
}
