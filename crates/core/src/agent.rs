//! The P4Auth data-plane agent: the emulated "P4 program".
//!
//! [`P4AuthSwitch`] is everything the paper instruments into the switch
//! pipeline (§V, §VII):
//!
//! * parses incoming P4Auth messages (PacketOut register requests, DP-DP
//!   in-network control messages, key-exchange messages);
//! * verifies the digest of each message entirely in the data plane using
//!   the key selected by `(port, keyVersion)`;
//! * executes authenticated register reads/writes through the
//!   `reg_id_to_name_mapping` table (Fig. 15), answering `ack`/`nAck`;
//! * rejects replays via per-peer sequence windows and rate-limits alerts
//!   (§VIII);
//! * answers EAK and ADHKD exchanges and maintains the key register (§VI);
//! * authenticates and re-seals in-network control messages hop by hop for
//!   whatever [`InNetworkApp`] (HULA, RouteScout's data plane, …) is
//!   mounted on the switch.
//!
//! With `auth_enabled = false` the same agent degrades to the insecure
//! baselines the evaluation compares against (DP-Reg-RW, vanilla HULA).

use crate::adhkd::{self, AdhkdInitiator, AdhkdPayload};
use crate::auth::{AlertDecision, AlertLimiter, AuthMetrics, RejectReason};
use crate::channel::{ChannelEnd, Opened};
use crate::eak;
use crate::keys::KeySlot;
use p4auth_dataplane::chassis::{
    Chassis, ChassisConfig, ChassisError, PacketContext, RegisterHandle, TableHandle,
};
use p4auth_dataplane::cost::TargetProfile;
use p4auth_dataplane::packet::Packet;
use p4auth_dataplane::table::{ActionEntry, MatchKey, MatchTable, TableKind};
use p4auth_primitives::dh::{DhParams, DhPublic};
use p4auth_primitives::idhash::IdMap;
use p4auth_primitives::kdf::{Kdf, KdfConfig};
use p4auth_primitives::mac::Mac;
use p4auth_primitives::rng::SplitMix64;
use p4auth_primitives::Key64;
use p4auth_telemetry::{Counter, Event as TelemetryEvent, Histogram, Registry};
use p4auth_wire::body::{
    AdhkdRole, Alert, AlertKind, Body, EakStep, InNetwork, KexContext, KeyExchange, NackReason,
    RegisterOp,
};
use p4auth_wire::ids::{PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::{digest_parts, verify_frame, Message};
use std::sync::Arc;

/// Name of the Fig. 15 mapping table on the chassis.
pub const REG_MAPPING_TABLE: &str = "reg_id_to_name_mapping";

/// Qualifier values in the mapping table (read/write discriminator).
const QUAL_READ: u8 = 1;
const QUAL_WRITE: u8 = 2;

/// Alert rate limit (§VIII DoS defence): at most this many alerts per
/// [`ALERT_PERIOD_NS`], then one rate-limited marker, then silence until
/// the period ends.
const ALERT_MAX: u32 = 64;
/// The alert rate-limit period: one second of simulated time.
const ALERT_PERIOD_NS: u64 = 1_000_000_000;

/// Odd multiplier of the boot count in the RNG seed: boot `b` seeds with
/// `rng_seed ^ b * BOOT_SEED_STRIDE`, so boot 0 keeps the configured seed
/// and every later boot starts a stream far from the others.
const BOOT_SEED_STRIDE: u64 = 0xd1b5_4a32_d192_ed03;

/// An in-network system (e.g. HULA) mounted on the agent. The agent
/// authenticates DP-DP control messages *before* the app sees them and
/// re-seals whatever the app forwards (§V, "Authentication of DP-DP
/// control messages").
pub trait InNetworkApp: Send {
    /// The `msgType` byte identifying this system's control messages.
    fn system_id(&self) -> u8;

    /// Declare the app's registers/tables on the chassis (run once at
    /// agent construction — the P4 instantiation step).
    fn setup(&mut self, chassis: &mut Chassis);

    /// Handle an *authenticated* in-network control payload; returns
    /// `(egress port, payload)` pairs to forward (the agent seals them).
    ///
    /// # Errors
    ///
    /// Chassis errors abort processing of this packet.
    fn on_control(
        &mut self,
        ctx: &mut PacketContext<'_>,
        ingress: PortId,
        payload: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError>;

    /// Handle a data packet (bytes that are not P4Auth traffic).
    ///
    /// # Errors
    ///
    /// Chassis errors abort processing of this packet.
    fn on_data(
        &mut self,
        ctx: &mut PacketContext<'_>,
        ingress: PortId,
        bytes: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError>;
}

/// Agent configuration.
#[derive(Clone)]
pub struct AgentConfig {
    /// This switch's identity.
    pub switch_id: SwitchId,
    /// Number of data ports.
    pub num_ports: u8,
    /// The pre-shared boot secret baked into the switch binary (§VI-A).
    pub k_seed: Key64,
    /// Target cost profile.
    pub profile: TargetProfile,
    /// `false` runs the insecure baselines (DP-Reg-RW / vanilla apps).
    pub auth_enabled: bool,
    /// Controller-visible register ids mapped to data-plane register names
    /// (populates the Fig. 15 table, two entries per register).
    pub register_map: Vec<(RegId, String)>,
    /// RNG seed for this switch's `random()` extern.
    pub rng_seed: u64,
}

impl AgentConfig {
    /// A Tofino-profile agent with authentication enabled and sensible
    /// defaults.
    pub fn new(switch_id: SwitchId, num_ports: u8, k_seed: Key64) -> Self {
        AgentConfig {
            switch_id,
            num_ports,
            k_seed,
            profile: TargetProfile::Tofino,
            auth_enabled: true,
            register_map: Vec::new(),
            rng_seed: switch_id.value() as u64 + 0x9e37_79b9,
        }
    }

    /// Disables authentication (baseline mode).
    #[must_use]
    pub fn insecure_baseline(mut self) -> Self {
        self.auth_enabled = false;
        self
    }

    /// Uses the BMv2 cost profile.
    #[must_use]
    pub fn bmv2(mut self) -> Self {
        self.profile = TargetProfile::Bmv2;
        self
    }

    /// Adds a register-id mapping entry.
    #[must_use]
    pub fn map_register(mut self, id: RegId, name: impl Into<String>) -> Self {
        self.register_map.push((id, name.into()));
        self
    }
}

/// Observable things the agent did while processing a packet (for tests,
/// experiment harnesses and the controller's bookkeeping).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AgentEvent {
    /// An incoming message verified successfully.
    VerifiedOk,
    /// An incoming message was rejected.
    Rejected(RejectReason),
    /// A register was read via an authenticated request.
    RegisterRead {
        /// The register's data-plane name.
        name: Arc<str>,
        /// Index read.
        index: u32,
        /// Value returned.
        value: u64,
    },
    /// A register was written via an authenticated request.
    RegisterWritten {
        /// The register's data-plane name.
        name: Arc<str>,
        /// Index written.
        index: u32,
        /// Value stored.
        value: u64,
    },
    /// `K_auth` was derived (EAK completed).
    AuthKeyDerived,
    /// A key was installed for `port` (initialization).
    KeyInstalled {
        /// Slot port (CPU = local key).
        port: PortId,
    },
    /// A key rolled over for `port` (update).
    KeyRolled {
        /// Slot port (CPU = local key).
        port: PortId,
    },
    /// An in-network control message was forwarded to the app.
    ProbeAccepted,
    /// An in-network control message was dropped (failed verification).
    ProbeDropped,
    /// An alert message was emitted toward the controller.
    AlertSent(AlertKind),
    /// An alert was suppressed by the rate limiter.
    AlertSuppressed,
}

/// Counters across the agent's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Messages that verified.
    pub verified_ok: u64,
    /// Digest failures.
    pub digest_failures: u64,
    /// Replay rejections.
    pub replays: u64,
    /// Acks sent.
    pub acks: u64,
    /// Nacks sent.
    pub nacks: u64,
    /// Alerts sent to the controller.
    pub alerts_sent: u64,
    /// Probes accepted and handed to the app.
    pub probes_accepted: u64,
    /// Probes dropped.
    pub probes_dropped: u64,
    /// Messages dropped because their channel was quarantined.
    pub quarantine_drops: u64,
}

/// Result of processing one packet.
#[derive(Debug, Default)]
pub struct AgentOutput {
    /// Frames to transmit: `(egress port, bytes)`.
    pub outputs: Vec<(PortId, Vec<u8>)>,
    /// Data-plane processing time (ns).
    pub cost_ns: u64,
    /// Hash-unit passes consumed.
    pub hash_passes: u32,
    /// Recirculations forced.
    pub recirculations: u32,
    /// What happened (in order).
    pub events: Vec<AgentEvent>,
}

impl AgentOutput {
    /// Convenience: whether any event equals `event`.
    pub fn has_event(&self, event: &AgentEvent) -> bool {
        self.events.contains(event)
    }
}

/// Pre-registered telemetry handles for one agent, all labeled by the
/// switch id so per-device series survive multi-switch simulations.
struct AgentTelemetry {
    registry: Arc<Registry>,
    auth: AuthMetrics,
    packet_cost_ns: Arc<Histogram>,
    register_op_cost_ns: Arc<Histogram>,
    keys_installed: Arc<Counter>,
    keys_rolled: Arc<Counter>,
    kex_steps: Arc<Counter>,
    probes_accepted: Arc<Counter>,
    probes_dropped: Arc<Counter>,
}

impl AgentTelemetry {
    fn new(registry: Arc<Registry>, switch: SwitchId) -> Self {
        let label = switch.to_string();
        AgentTelemetry {
            auth: AuthMetrics::register(&registry, &label),
            packet_cost_ns: registry.histogram_with("agent_packet_cost_ns", &label),
            register_op_cost_ns: registry.histogram_with("agent_register_op_cost_ns", &label),
            keys_installed: registry.counter_with("agent_keys_installed", &label),
            keys_rolled: registry.counter_with("agent_keys_rolled", &label),
            kex_steps: registry.counter_with("agent_kex_steps", &label),
            probes_accepted: registry.counter_with("agent_probes_accepted", &label),
            probes_dropped: registry.counter_with("agent_probes_dropped", &label),
            registry,
        }
    }
}

/// An ADHKD offer the agent answered: the key that opened it, its public
/// key and salt, and the answer's.
#[derive(Clone, Copy)]
struct AnsweredOffer {
    key: Key64,
    offer: (u64, u32),
    answer: (u64, u32),
}

/// The P4Auth data-plane agent.
pub struct P4AuthSwitch {
    config: AgentConfig,
    chassis: Chassis,
    /// One channel end per key-register slot (index = port number, the
    /// CPU channel at 0, §VII); the CPU end holds `K_seed` and `K_auth`.
    ends: Vec<ChannelEnd>,
    kdf: Kdf,
    rng: SplitMix64,
    /// Boots before this one ([`P4AuthSwitch::reboot`]), mixed into the
    /// RNG seed.
    boots: u64,
    limiter: AlertLimiter,
    /// The packet in the pipeline: refilled per frame, so its buffer is
    /// allocated once per agent and the frame is copied once per packet.
    packet: Packet,
    /// Indexed by `PortId` (a `u8`): dense, so no hashing.
    quarantined: [bool; 256],
    /// ADHKD exchanges this switch initiated, per `(context, slot)`: the
    /// initiator and the offer as sent.
    pending_kex: IdMap<(KexContext, PortId), (AdhkdInitiator, AdhkdPayload)>,
    /// At-most-once responder cache: the last ADHKD offer answered per
    /// `(context, slot)`. A retransmitted offer (the initiator's
    /// stall-retry racing the original through the network: the same
    /// offer under the same key) is answered from here without
    /// re-deriving — deriving twice for one exchange would move the key
    /// version twice while the initiator counts one rollover. The same
    /// offer under another key is a new exchange (a restarted initiator
    /// drawing the same randomness), except a redirected port-key offer:
    /// its initiator is a switch, whose reboot draws fresh randomness, and
    /// the key it opens under is the local key, which may roll mid-exchange.
    answered_offers: IdMap<(KexContext, PortId), AnsweredOffer>,
    app: Option<Box<dyn InNetworkApp>>,
    /// The Fig. 15 mapping table, declared by [`P4AuthSwitch::new`].
    mapping: TableHandle,
    /// Per mapping-table action index: the register's data-plane name and,
    /// from its first use on, its handle. Resolved at first use rather
    /// than in `new`, because harnesses declare registers through
    /// [`P4AuthSwitch::chassis_mut`] after it; only a hit is kept, so a
    /// register declared late is still found.
    mapped: Vec<(Arc<str>, Option<RegisterHandle>)>,
    stats: AgentStats,
    telemetry: Option<AgentTelemetry>,
}

impl std::fmt::Debug for P4AuthSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("P4AuthSwitch")
            .field("switch_id", &self.config.switch_id)
            .field("auth_enabled", &self.config.auth_enabled)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl P4AuthSwitch {
    /// Builds the agent, declares its tables/registers on a fresh chassis,
    /// and mounts `app` (if any).
    pub fn new(config: AgentConfig, app: Option<Box<dyn InNetworkApp>>) -> Self {
        Self::boot(config, app, 0)
    }

    /// [`P4AuthSwitch::new`] after `boots` earlier boots. The boot count is
    /// mixed into the RNG seed (the first boot uses `config.rng_seed` as
    /// is), so a rebooted switch draws fresh salts and DH private keys
    /// instead of replaying its first boot's.
    fn boot(config: AgentConfig, app: Option<Box<dyn InNetworkApp>>, boots: u64) -> Self {
        let chassis_config = ChassisConfig {
            switch_id: config.switch_id,
            profile: config.profile,
            num_ports: config.num_ports,
        };
        let mut chassis = Chassis::new(chassis_config);

        // Fig. 15: the register mapping table, two entries per register.
        let capacity = (config.register_map.len() as u32 * 2).max(2);
        let mut table = MatchTable::new(REG_MAPPING_TABLE, TableKind::ExactSram, capacity, 40);
        let mut mapped = Vec::new();
        for (reg_id, name) in &config.register_map {
            let action_index = mapped.len() as u64;
            mapped.push((Arc::from(name.as_str()), None));
            table
                .insert(
                    MatchKey::new(reg_id.value() as u64, QUAL_READ),
                    ActionEntry::new(QUAL_READ as u32, action_index, 0),
                )
                .expect("mapping table sized for the register map");
            table
                .insert(
                    MatchKey::new(reg_id.value() as u64, QUAL_WRITE),
                    ActionEntry::new(QUAL_WRITE as u32, action_index, 0),
                )
                .expect("mapping table sized for the register map");
        }
        let mapping = chassis.declare_table(table);

        let mut app = app;
        if let Some(a) = app.as_mut() {
            a.setup(&mut chassis);
        }

        P4AuthSwitch {
            ends: (0..=config.num_ports)
                .map(|p| ChannelEnd::new((p == 0).then_some(config.k_seed)))
                .collect(),
            kdf: Kdf::new(KdfConfig::PAPER),
            rng: SplitMix64::new(config.rng_seed ^ boots.wrapping_mul(BOOT_SEED_STRIDE)),
            boots,
            limiter: AlertLimiter::new(ALERT_MAX, ALERT_PERIOD_NS),
            packet: Packet::from_bytes(PortId::CPU, Vec::new()),
            quarantined: [false; 256],
            pending_kex: IdMap::default(),
            answered_offers: IdMap::default(),
            app,
            mapping,
            mapped,
            chassis,
            stats: AgentStats::default(),
            config,
            telemetry: None,
        }
    }

    /// Attaches a telemetry registry. All agent metrics are labeled with
    /// the switch id; the chassis shares the same registry so pipeline
    /// usage counters land next to the auth counters.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.chassis.set_telemetry(registry.clone());
        self.telemetry = Some(AgentTelemetry::new(registry, self.config.switch_id));
    }

    /// Reboots the switch: the same configuration and in-network app are
    /// loaded on a fresh chassis, and everything else starts empty —
    /// registers, tables, keys, sequence counters, replay windows, pending
    /// exchanges and counters. A telemetry registry stays attached, and
    /// the boot count goes up, so the RNG draws a new stream.
    pub fn reboot(&mut self) {
        let registry = self.telemetry.as_ref().map(|t| t.registry.clone());
        *self = P4AuthSwitch::boot(self.config.clone(), self.app.take(), self.boots + 1);
        if let Some(registry) = registry {
            self.set_telemetry(registry);
        }
    }

    /// This switch's id.
    pub fn switch_id(&self) -> SwitchId {
        self.config.switch_id
    }

    /// The key slot for `port` (the local key for [`PortId::CPU`]); an
    /// empty slot past the key register.
    pub fn keys(&self, port: PortId) -> &KeySlot {
        self.ends
            .get(port.key_index())
            .map_or(&KeySlot::EMPTY, ChannelEnd::keys)
    }

    /// Whether `K_auth` has been derived.
    pub fn has_auth_key(&self) -> bool {
        self.ends[0].has_auth_key()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// The chassis (inspection of app registers, hash meter, …).
    pub fn chassis(&self) -> &Chassis {
        &self.chassis
    }

    /// Mutable chassis access — this is the *driver surface* the §II-A
    /// adversary abuses: direct register manipulation that bypasses
    /// P4Auth's checks entirely (used by the attack models).
    pub fn chassis_mut(&mut self) -> &mut Chassis {
        &mut self.chassis
    }

    /// The mounted app (downcast by the caller).
    pub fn app(&self) -> Option<&dyn InNetworkApp> {
        self.app.as_deref()
    }

    /// Installs a key directly (strawman static-key provisioning, and test
    /// fixtures). Real deployments use EAK/ADHKD.
    ///
    /// # Panics
    ///
    /// Panics if `port` is past the key register.
    pub fn install_key(&mut self, port: PortId, key: Key64) {
        self.rekey(0, port, key, false);
    }

    /// Rolls a key to a new generation directly (static-key provisioning
    /// counterpart of [`Self::install_key`]; real deployments roll via the
    /// KMP).
    ///
    /// # Panics
    ///
    /// Panics if no key was installed for `port`, or `port` is past the
    /// key register.
    pub fn rollover_key(&mut self, port: PortId, key: Key64) {
        self.rekey(0, port, key, true);
    }

    /// Quarantines (or releases) a channel: while quarantined, register
    /// requests and in-network control traffic arriving on `channel` are
    /// dropped and counted with [`RejectReason::Quarantined`]. Key-exchange
    /// traffic still flows — installing a fresh key on the channel is what
    /// lifts the quarantine, so the KMP must not be locked out.
    ///
    /// Driven by the controller's adaptive defence (out of band, like the
    /// rest of the provisioning surface).
    pub fn set_channel_quarantine(&mut self, channel: PortId, on: bool) {
        self.quarantined[usize::from(channel.value())] = on;
    }

    /// Whether `channel` is currently quarantined.
    pub fn is_quarantined(&self, channel: PortId) -> bool {
        self.quarantined[usize::from(channel.value())]
    }

    /// Installs `key` in `port`'s slot (or rolls to it), counts it and
    /// logs a [`TelemetryEvent::KeyDerived`] carrying the now-active
    /// version. Direct provisioning has no sim clock, so those events carry
    /// `t_ns = 0`. Any quarantine on the channel is lifted — a fresh key is
    /// the defence loop's exit condition. Returns the event to report.
    fn rekey(&mut self, now_ns: u64, port: PortId, key: Key64, rolled: bool) -> AgentEvent {
        self.ends[port.key_index()].rekey(key, rolled);
        self.quarantined[usize::from(port.value())] = false;
        if let Some(t) = &self.telemetry {
            if rolled {
                t.keys_rolled.inc();
            } else {
                t.keys_installed.inc();
            }
            t.registry.record(
                now_ns,
                TelemetryEvent::KeyDerived {
                    switch: self.config.switch_id.value(),
                    port: port.value(),
                    version: self.keys(port).version().value(),
                },
            );
        }
        if rolled {
            AgentEvent::KeyRolled { port }
        } else {
            AgentEvent::KeyInstalled { port }
        }
    }

    /// The offer of `slot`'s pending port-key exchange, started now if none
    /// is pending. A repeated `portKeyInit` or `portKeyUpdate` (the
    /// controller's retry, or the original overtaken by it) re-sends the
    /// pending offer unchanged: a fresh one would replace the initiator an
    /// answer to the first is finished with, and the two ends would derive
    /// different keys.
    fn pending_port_kex(&mut self, context: KexContext, slot: PortId) -> AdhkdPayload {
        if let Some(&(_, offer)) = self.pending_kex.get(&(context, slot)) {
            return offer;
        }
        let (initiator, offer) = AdhkdInitiator::start(DhParams::recommended(), &mut self.rng);
        self.pending_kex.insert((context, slot), (initiator, offer));
        offer
    }

    /// `offer` for `slot`'s exchange, sealed on channel `port`.
    fn seal_offer(
        &mut self,
        port: PortId,
        context: KexContext,
        slot: PortId,
        offer: AdhkdPayload,
    ) -> Option<(PortId, Vec<u8>)> {
        let offer = KeyExchange::Adhkd {
            role: AdhkdRole::Offer,
            context,
            public_key: offer.public_key.to_raw(),
            salt: offer.salt,
        };
        let msg = Message::key_exchange(self.config.switch_id, slot, SeqNum::default(), offer);
        self.seal_on(port, msg).map(|frame| (port, frame))
    }

    /// `msg` as the next frame on `port`'s channel: sealed, or plain
    /// while the channel has no key yet. `None` past the key register.
    fn seal_on(&mut self, port: PortId, msg: Message) -> Option<Vec<u8>> {
        let mac = self.chassis.hash_mac();
        let end = self.ends.get_mut(port.key_index())?;
        Some(
            end.seal(None, msg, |key, parts| mac.compute(key, parts))
                .unwrap_or_else(|msg| msg.encode()),
        )
    }

    /// Builds and seals an outgoing in-network control message for `port`
    /// (the sender side of §V's DP-DP authentication). Returns `None` if
    /// `port` is past the key register, or if no key is installed for the
    /// port and auth is enabled.
    pub fn seal_probe(&mut self, port: PortId, system: u8, payload: Vec<u8>) -> Option<Vec<u8>> {
        let id = self.config.switch_id;
        let msg = Message::in_network(id, port, SeqNum::default(), InNetwork::new(system, payload));
        let end = self.ends.get_mut(port.key_index())?;
        if !self.config.auth_enabled {
            return Some(end.seal_plain(msg));
        }
        let mac = self.chassis.hash_mac();
        end.seal(None, msg, |key, parts| mac.compute(key, parts))
            .ok()
    }

    /// Processes one packet and returns outputs plus accounting.
    pub fn on_packet(&mut self, now_ns: u64, ingress: PortId, bytes: &[u8]) -> AgentOutput {
        self.packet.ingress = ingress;
        self.packet.bytes.clear();
        self.packet.bytes.extend_from_slice(bytes);
        let Ok(msg) = Message::decode(bytes) else {
            // The C-DP channel carries P4Auth frames only, so a frame that
            // does not decode there is rejected as the controller rejects
            // it; on a data port it is data traffic.
            let out = if ingress == PortId::CPU {
                self.reject(
                    now_ns,
                    None,
                    ingress,
                    RejectReason::Malformed,
                    None,
                    Vec::new(),
                )
            } else {
                self.handle_data(now_ns, ingress)
            };
            self.note_packet_cost(now_ns, false, &out);
            return out;
        };
        // Handlers get the frame next to the decoded message: digests are
        // verified over `bytes`, never over a re-encoding of `msg`.
        let out = match msg.body() {
            Body::Register(op) => self.handle_register(now_ns, bytes, &msg, *op),
            Body::KeyExchange(kex) => self.handle_key_exchange(now_ns, ingress, bytes, &msg, *kex),
            Body::InNetwork(inner) => self.handle_in_network(now_ns, ingress, bytes, &msg, inner),
            Body::Alert(_) => AgentOutput::default(),
        };
        self.note_packet_cost(now_ns, matches!(msg.body(), Body::Register(_)), &out);
        out
    }

    /// Records pipeline-cost telemetry for one processed packet: the overall
    /// cost histogram, the register-op cost histogram (the data-plane leg of
    /// the controller's register RPC latency), and a timestamped
    /// [`TelemetryEvent::RecircUsed`] when the packet overflowed the stage
    /// budget.
    fn note_packet_cost(&self, now_ns: u64, register_op: bool, out: &AgentOutput) {
        let Some(t) = &self.telemetry else { return };
        if out.cost_ns > 0 {
            t.packet_cost_ns.record(out.cost_ns);
            if register_op {
                t.register_op_cost_ns.record(out.cost_ns);
            }
        }
        if out.recirculations > 0 {
            t.registry.record(
                now_ns,
                TelemetryEvent::RecircUsed {
                    switch: self.config.switch_id.value(),
                    count: out.recirculations,
                },
            );
        }
    }

    fn handle_data(&mut self, now_ns: u64, ingress: PortId) -> AgentOutput {
        let Some(mut app) = self.app.take() else {
            return AgentOutput::default();
        };
        let result = self.chassis.process(now_ns, &self.packet, |ctx, pkt| {
            let outs = app.on_data(ctx, ingress, &pkt.bytes)?;
            Ok(outs
                .into_iter()
                .map(|(p, b)| (p, Packet::from_bytes(p, b)))
                .collect())
        });
        self.app = Some(app);
        match result {
            Ok(outcome) => AgentOutput {
                outputs: outcome
                    .outputs
                    .into_iter()
                    .map(|(p, pkt)| (p, pkt.bytes))
                    .collect(),
                cost_ns: outcome.cost_ns,
                hash_passes: outcome.hash_passes,
                recirculations: outcome.recirculations,
                events: Vec::new(),
            },
            Err(_) => AgentOutput::default(),
        }
    }

    /// Opens a received `frame` (decoded as `msg`) on `end` inside the
    /// pipeline, so the digest pass is metered on the chassis; no end (a
    /// port past the key register) has no key.
    fn open_in_ctx(
        ctx: &mut PacketContext<'_>,
        end: Option<&mut ChannelEnd>,
        frame: &[u8],
        msg: &Message,
    ) -> Result<Opened, RejectReason> {
        let end = end.ok_or(RejectReason::NoKey)?;
        end.open(msg, |key| {
            ctx.verify_digest(key, &digest_parts(frame), msg.digest())
        })
    }

    /// How every handler ends a frame that failed verification (and
    /// `on_packet` one that did not decode, `msg` `None`): counted,
    /// logged, reported as [`AgentEvent::Rejected`] after `events`, and
    /// `alert`, if any, raised toward the controller (rate-limited).
    /// Nothing else answers the frame: a sealed reply to a request that
    /// did not verify would be a second report the alert limiter does not
    /// bound, and one the controller would match to whichever genuine
    /// request holds the same sequence number (DESIGN §2, reject
    /// reporting).
    fn reject(
        &mut self,
        now_ns: u64,
        msg: Option<&Message>,
        channel: PortId,
        reason: RejectReason,
        alert: Option<Alert>,
        mut events: Vec<AgentEvent>,
    ) -> AgentOutput {
        // An undecodable frame names no sender; only the controller
        // sends on the C-DP channel.
        let peer = msg.map_or(SwitchId::CONTROLLER, |m| m.header().sender);
        match reason {
            RejectReason::Replayed { .. } => self.stats.replays += 1,
            RejectReason::Quarantined => self.stats.quarantine_drops += 1,
            RejectReason::Malformed => {}
            RejectReason::BadDigest | RejectReason::NoKey => self.stats.digest_failures += 1,
        }
        if let Some(t) = &self.telemetry {
            t.auth.record_verify(&Err(reason));
            t.registry.record(
                now_ns,
                TelemetryEvent::DigestRejected {
                    peer: peer.value(),
                    channel: channel.value(),
                    reason: reason.kind(),
                },
            );
            t.registry.trace().instant(
                p4auth_telemetry::SpanKind::DigestReject,
                now_ns,
                self.config.switch_id.value(),
                u64::from(peer.value()),
                u64::from(channel.value()),
            );
            if let (RejectReason::Replayed { last_accepted }, Some(msg)) = (reason, msg) {
                t.registry.record(
                    now_ns,
                    TelemetryEvent::ReplayDetected {
                        peer: peer.value(),
                        channel: channel.value(),
                        last_accepted: last_accepted.value() as u64,
                        got: msg.header().seq_num.value() as u64,
                    },
                );
            }
        }
        events.push(AgentEvent::Rejected(reason));
        let mut outputs = Vec::new();
        if let Some(alert) = alert {
            self.raise_alert(now_ns, alert, &mut outputs, &mut events);
        }
        AgentOutput {
            outputs,
            events,
            ..AgentOutput::default()
        }
    }

    /// Counts a successful verification in the telemetry layer (the
    /// `stats.verified_ok` mirror for [`AuthMetrics`]) and, when tracing
    /// is enabled, emits a `digest_verify` span instant on this switch.
    fn note_verify_ok(&self, now_ns: u64, peer: SwitchId, channel: PortId) {
        if let Some(t) = &self.telemetry {
            t.auth.record_verify(&Ok(()));
            t.registry.trace().instant(
                p4auth_telemetry::SpanKind::DigestVerify,
                now_ns,
                self.config.switch_id.value(),
                u64::from(peer.value()),
                u64::from(channel.value()),
            );
        }
    }

    /// Emits an alert toward the controller, subject to rate limiting.
    fn raise_alert(
        &mut self,
        now_ns: u64,
        alert: Alert,
        outputs: &mut Vec<(PortId, Vec<u8>)>,
        events: &mut Vec<AgentEvent>,
    ) {
        let decision = self.limiter.on_alert(now_ns);
        if let Some(t) = &self.telemetry {
            t.auth.record_alert(decision);
            let source = self.config.switch_id.value();
            let event = match decision {
                AlertDecision::Suppress => TelemetryEvent::AlertSuppressed { source },
                _ => TelemetryEvent::AlertEmitted {
                    source,
                    reason: match alert.kind {
                        AlertKind::SeqMismatch => p4auth_telemetry::RejectKind::Replayed,
                        _ => p4auth_telemetry::RejectKind::BadDigest,
                    },
                },
            };
            t.registry.record(now_ns, event);
        }
        let alert = match decision {
            AlertDecision::Emit => alert,
            AlertDecision::EmitRateLimitMarker => Alert {
                kind: AlertKind::RateLimited,
                offending_seq: alert.offending_seq,
                detail: alert.detail,
            },
            AlertDecision::Suppress => {
                events.push(AgentEvent::AlertSuppressed);
                return;
            }
        };
        let id = self.config.switch_id;
        outputs.extend(
            self.seal_on(PortId::CPU, Message::alert(id, SeqNum::default(), alert))
                .map(|frame| (PortId::CPU, frame)),
        );
        self.stats.alerts_sent += 1;
        events.push(AgentEvent::AlertSent(alert.kind));
    }

    fn handle_register(
        &mut self,
        now_ns: u64,
        frame: &[u8],
        msg: &Message,
        op: RegisterOp,
    ) -> AgentOutput {
        let (reg, index, qualifier, value) = match op {
            RegisterOp::ReadReq { reg, index } => (reg, index, QUAL_READ, 0),
            RegisterOp::WriteReq { reg, index, value } => (reg, index, QUAL_WRITE, value),
            // Responses are controller-bound; a DP receiving one ignores it.
            _ => return AgentOutput::default(),
        };

        let auth = self.config.auth_enabled;
        // With auth on, every path pushes a verdict and then at most one
        // more event (the register access, or the alert).
        let mut events = Vec::with_capacity(2);
        let mut reject: Option<RejectReason> = None;
        let mut opened: Option<Opened> = None;
        let mut reply_op: Option<RegisterOp> = None;
        let unknown = RegisterOp::Nack {
            reg,
            index,
            reason: NackReason::UnknownRegister,
        };

        let quarantined = auth && self.is_quarantined(PortId::CPU);
        let cpu = &mut self.ends[0];
        let mapping = self.mapping;
        let mapped = &mut self.mapped;
        let outcome = self
            .chassis
            .process(now_ns, &self.packet, |ctx, _| {
                if quarantined {
                    // Defence-imposed drop: don't even verify — the channel
                    // key is suspect until the KMP installs a fresh one.
                    reject = Some(RejectReason::Quarantined);
                    return Ok(vec![]);
                }
                if auth {
                    match Self::open_in_ctx(ctx, Some(cpu), frame, msg) {
                        Ok(generation) => {
                            opened = Some(generation);
                            events.push(AgentEvent::VerifiedOk);
                        }
                        Err(reason) => {
                            reject = Some(reason);
                            return Ok(vec![]);
                        }
                    }
                }
                let key = MatchKey::new(reg.value() as u64, qualifier);
                let Some(entry) = ctx.lookup_at(mapping, key) else {
                    reply_op = Some(unknown);
                    return Ok(vec![]);
                };
                let (name, slot) = &mut mapped[entry.data0 as usize];
                let register = match *slot {
                    Some(register) => register,
                    None => match ctx.register_handle(name) {
                        Some(register) => *slot.insert(register),
                        // Mapped in the config but not (yet) declared on
                        // the chassis: to the requester it does not exist.
                        None => {
                            reply_op = Some(unknown);
                            return Ok(vec![]);
                        }
                    },
                };
                let done = match qualifier {
                    QUAL_READ => ctx.read_register_at(register, index).map(|value| {
                        let name = name.clone();
                        (AgentEvent::RegisterRead { name, index, value }, value)
                    }),
                    _ => ctx.write_register_at(register, index, value).map(|()| {
                        let name = name.clone();
                        (AgentEvent::RegisterWritten { name, index, value }, 0)
                    }),
                };
                reply_op = Some(match done {
                    Ok((event, value)) => {
                        events.push(event);
                        RegisterOp::Ack { reg, index, value }
                    }
                    Err(_) => RegisterOp::Nack {
                        reg,
                        index,
                        reason: NackReason::IndexOutOfRange,
                    },
                });
                Ok(vec![])
            })
            .expect("the register program emits no packet and returns no error");

        if let Some(reason) = reject {
            // The alert is the only report (DESIGN §2, reject reporting).
            let alert = reason.to_alert(msg.header().seq_num, 0);
            return AgentOutput {
                cost_ns: outcome.cost_ns,
                hash_passes: outcome.hash_passes,
                recirculations: outcome.recirculations,
                ..self.reject(now_ns, Some(msg), PortId::CPU, reason, alert, events)
            };
        }
        let mut outputs = Vec::with_capacity(1);
        if let Some(reply) = reply_op {
            if auth {
                self.stats.verified_ok += 1;
                self.note_verify_ok(now_ns, msg.header().sender, PortId::CPU);
            }
            match reply {
                RegisterOp::Ack { .. } => self.stats.acks += 1,
                _ => self.stats.nacks += 1,
            }
            // The response carries the request's seqNum and keyVersion, so
            // the controller can map it to the request, and is sealed under
            // the key that opened the request. It draws no number: it is
            // matched, not windowed.
            let header = msg.header();
            let reply = Message::new(
                self.config.switch_id,
                PortId::CPU,
                header.seq_num,
                Body::Register(reply),
            )
            .with_key_version(header.key_version);
            let frame = match opened {
                Some(opened) => {
                    let mac = self.chassis.hash_mac();
                    reply.encode_sealed_with(|parts| mac.compute(opened.key, parts))
                }
                None => reply.encode(),
            };
            outputs.push((PortId::CPU, frame));
        }

        AgentOutput {
            outputs,
            cost_ns: outcome.cost_ns,
            hash_passes: outcome.hash_passes,
            recirculations: outcome.recirculations,
            events,
        }
    }

    fn handle_key_exchange(
        &mut self,
        now_ns: u64,
        ingress: PortId,
        frame: &[u8],
        msg: &Message,
        kex: KeyExchange,
    ) -> AgentOutput {
        if !self.config.auth_enabled {
            return AgentOutput::default();
        }
        let mut events = Vec::new();
        let mut outputs = Vec::new();

        // The key slot this leg installs into or rolls.
        let slot = match kex {
            KeyExchange::EakSalt { .. } => PortId::CPU,
            KeyExchange::Adhkd { context, .. } => match context {
                KexContext::LocalInit | KexContext::LocalUpdate => PortId::CPU,
                KexContext::PortInitRedirect => msg.header().port,
                KexContext::PortUpdateDirect => ingress,
            },
            KeyExchange::PortKeyInit { peer_port, .. }
            | KeyExchange::PortKeyUpdate { peer_port, .. } => peer_port,
        };
        // Every key-exchange message is authenticated (the "A" in ADHKD)
        // on the channel it belongs to: the DP-DP update on its port, every
        // other leg on the CPU channel. Past this block `key` is the one
        // that verified it. A verified leg naming a slot past the key
        // register is malformed.
        let channel = match kex {
            KeyExchange::Adhkd {
                context: KexContext::PortUpdateDirect,
                ..
            } => ingress,
            _ => PortId::CPU,
        };
        let mac = self.chassis.hash_mac();
        let verified = match self.ends.get_mut(channel.key_index()) {
            Some(end) => end.open(msg, |key| verify_frame(mac, key, frame)),
            None => Err(RejectReason::NoKey),
        }
        .and_then(|opened| {
            if slot.key_index() < self.ends.len() {
                Ok(opened)
            } else {
                Err(RejectReason::Malformed)
            }
        });
        let opened = match verified {
            Ok(opened) => opened,
            Err(reason) => {
                let alert = Alert {
                    kind: AlertKind::KeyExchangeFailure,
                    offending_seq: msg.header().seq_num,
                    detail: ingress.value() as u32,
                };
                return self.reject(now_ns, Some(msg), ingress, reason, Some(alert), events);
            }
        };
        self.stats.verified_ok += 1;
        self.note_verify_ok(now_ns, msg.header().sender, ingress);
        events.push(AgentEvent::VerifiedOk);

        if let Some(t) = &self.telemetry {
            let step: &'static str = match &kex {
                KeyExchange::EakSalt {
                    step: EakStep::Salt1,
                    ..
                } => "eak_salt1",
                KeyExchange::EakSalt {
                    step: EakStep::Salt2,
                    ..
                } => "eak_salt2",
                KeyExchange::Adhkd {
                    role: AdhkdRole::Offer,
                    ..
                } => "adhkd_offer",
                KeyExchange::Adhkd {
                    role: AdhkdRole::Answer,
                    ..
                } => "adhkd_answer",
                KeyExchange::PortKeyInit { .. } => "port_key_init",
                KeyExchange::PortKeyUpdate { .. } => "port_key_update",
            };
            t.kex_steps.inc();
            t.registry.record(
                now_ns,
                TelemetryEvent::KexStep {
                    node: self.config.switch_id.value(),
                    step,
                },
            );
        }

        match kex {
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt,
            } => {
                // Every verified Salt1 starts a K_auth generation: a
                // replayed one cannot be told from a restarted controller's.
                // The displaced K_auth stays as the previous generation, so
                // an init in flight under it still completes.
                let (s2, k_auth) = eak::respond(self.config.k_seed, salt, &mut self.rng, &self.kdf);
                self.ends[0].set_auth_key(k_auth);
                events.push(AgentEvent::AuthKeyDerived);
                let salt2 = KeyExchange::EakSalt {
                    step: EakStep::Salt2,
                    salt: s2,
                };
                let salt2 = Message::key_exchange(
                    self.config.switch_id,
                    PortId::CPU,
                    SeqNum::default(),
                    salt2,
                );
                let transcript = eak::transcript(salt);
                let frame = self.ends[0]
                    .seal(Some(opened), salt2, |key, parts| {
                        mac.compute(key, &[parts, &[&transcript[..]]].concat())
                    })
                    .unwrap_or_else(|msg| msg.encode());
                outputs.push((PortId::CPU, frame));
            }
            KeyExchange::EakSalt {
                step: EakStep::Salt2,
                ..
            } => {
                // The DP never initiates EAK; ignore.
            }
            KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                context,
                public_key,
                salt,
            } => {
                // A retransmission of an already-answered offer (the
                // initiator's stall-retry overtaken by the original): the
                // key was derived once; only the answer is repeated. A
                // redirected port-key offer opens under this switch's
                // local key, which the controller may roll while the
                // exchange is open: a copy sealed under the new key is
                // still the same offer.
                let redirected = context == KexContext::PortInitRedirect;
                let cached = self
                    .answered_offers
                    .get(&(context, slot))
                    .filter(|a| {
                        (redirected || a.key == opened.key) && a.offer == (public_key, salt)
                    })
                    .map(|a| a.answer);
                let (answer_pk, answer_salt) = match cached {
                    Some(cached) => cached,
                    None => {
                        let offer = AdhkdPayload {
                            public_key: DhPublic::from_raw(public_key),
                            salt,
                        };
                        let (answer, master) = adhkd::respond(
                            DhParams::recommended(),
                            offer,
                            &mut self.rng,
                            &self.kdf,
                        );
                        events.push(self.rekey(now_ns, slot, master, context.rolls()));
                        let reply = (answer.public_key.to_raw(), answer.salt);
                        let answered = AnsweredOffer {
                            key: opened.key,
                            offer: (public_key, salt),
                            answer: reply,
                        };
                        self.answered_offers.insert((context, slot), answered);
                        reply
                    }
                };
                // Answer on the offer's channel, sealed with the key and
                // tag that verified the offer (the pre-update key for
                // rollovers).
                let answer = Message::new(
                    self.config.switch_id,
                    msg.header().port,
                    SeqNum::default(),
                    Body::KeyExchange(KeyExchange::Adhkd {
                        role: AdhkdRole::Answer,
                        context,
                        public_key: answer_pk,
                        salt: answer_salt,
                    }),
                );
                let mac = self.chassis.hash_mac();
                let end = &mut self.ends[channel.key_index()];
                // A generation whose counter ran out answers nothing: the
                // initiator's retry meets the next generation.
                if let Ok(frame) =
                    end.seal(Some(opened), answer, |key, parts| mac.compute(key, parts))
                {
                    outputs.push((channel, frame));
                }
            }
            KeyExchange::Adhkd {
                role: AdhkdRole::Answer,
                context,
                public_key,
                salt,
            } => {
                if let Some((initiator, _)) = self.pending_kex.remove(&(context, slot)) {
                    let master = initiator.finish(
                        AdhkdPayload {
                            public_key: DhPublic::from_raw(public_key),
                            salt,
                        },
                        &self.kdf,
                    );
                    events.push(self.rekey(now_ns, slot, master, context.rolls()));
                }
            }
            KeyExchange::PortKeyInit { peer: _, peer_port } => {
                // Fig. 14(c): become the ADHKD initiator; the offer is
                // redirected via the controller, sealed with K_local.
                let context = KexContext::PortInitRedirect;
                let offer = self.pending_port_kex(context, peer_port);
                outputs.extend(self.seal_offer(PortId::CPU, context, peer_port, offer));
            }
            KeyExchange::PortKeyUpdate { peer: _, peer_port } => {
                // Fig. 14(d): direct DP-DP ADHKD under the current K_port.
                let context = KexContext::PortUpdateDirect;
                let offer = self.pending_port_kex(context, peer_port);
                outputs.extend(self.seal_offer(peer_port, context, peer_port, offer));
            }
        }

        AgentOutput {
            outputs,
            events,
            ..AgentOutput::default()
        }
    }

    fn handle_in_network(
        &mut self,
        now_ns: u64,
        ingress: PortId,
        frame: &[u8],
        msg: &Message,
        inner: &InNetwork,
    ) -> AgentOutput {
        let mut events = Vec::new();
        let auth = self.config.auth_enabled;

        let Some(mut app) = self.app.take() else {
            return AgentOutput::default();
        };
        if app.system_id() != inner.system {
            self.app = Some(app);
            return AgentOutput::default();
        }

        let quarantined = auth && self.is_quarantined(ingress);
        let ends = &mut self.ends;
        let switch_id = self.config.switch_id;
        let system = inner.system;
        let mut reject: Option<RejectReason> = None;
        let mut sealed_outputs: Vec<(PortId, Vec<u8>)> = Vec::new();

        let outcome = self.chassis.process(now_ns, &self.packet, |ctx, _| {
            if quarantined {
                reject = Some(RejectReason::Quarantined);
                return Ok(vec![]);
            }
            if auth {
                let end = ends.get_mut(ingress.key_index());
                if let Err(reason) = Self::open_in_ctx(ctx, end, frame, msg) {
                    reject = Some(reason);
                    return Ok(vec![]);
                }
            }
            // Forwarded control messages are re-sealed with each egress
            // port's key *inside* the pipeline pass, so the digest
            // computation is metered and costed like the hardware would.
            for (port, payload) in app.on_control(ctx, ingress, &inner.payload)? {
                let Some(end) = ends.get_mut(port.key_index()) else {
                    continue; // no such egress channel; drop
                };
                let msg = Message::in_network(
                    switch_id,
                    port,
                    SeqNum::default(),
                    InNetwork::new(system, payload),
                );
                let frame = if auth {
                    match end.seal(None, msg, |key, parts| ctx.compute_digest(key, parts)) {
                        Ok(frame) => frame,
                        // No key for this egress, or its counter ran out; drop.
                        Err(_) => continue,
                    }
                } else {
                    end.seal_plain(msg)
                };
                sealed_outputs.push((port, frame));
            }
            Ok(vec![])
        });
        self.app = Some(app);
        let outcome = match outcome {
            Ok(o) => o,
            Err(_) => return AgentOutput::default(),
        };

        if let Some(reason) = reject {
            // §IX-A: the switch ignores the tampered probe and raises an
            // alert to the controller.
            self.stats.probes_dropped += 1;
            if let Some(t) = &self.telemetry {
                t.probes_dropped.inc();
            }
            events.push(AgentEvent::ProbeDropped);
            let alert = reason.to_alert(msg.header().seq_num, ingress.value() as u32);
            return AgentOutput {
                cost_ns: outcome.cost_ns,
                hash_passes: outcome.hash_passes,
                recirculations: outcome.recirculations,
                ..self.reject(now_ns, Some(msg), ingress, reason, alert, events)
            };
        }
        if auth {
            self.stats.verified_ok += 1;
            self.note_verify_ok(now_ns, msg.header().sender, ingress);
            events.push(AgentEvent::VerifiedOk);
        }
        self.stats.probes_accepted += 1;
        if let Some(t) = &self.telemetry {
            t.probes_accepted.inc();
        }
        events.push(AgentEvent::ProbeAccepted);

        AgentOutput {
            outputs: sealed_outputs,
            cost_ns: outcome.cost_ns,
            hash_passes: outcome.hash_passes,
            recirculations: outcome.recirculations,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_dataplane::register::RegisterArray;
    use p4auth_primitives::mac::HalfSipHashMac;

    const SEED: Key64 = Key64::new(0x5eed_0000_5eed_0000);

    fn mac() -> HalfSipHashMac {
        HalfSipHashMac::default()
    }

    fn agent() -> P4AuthSwitch {
        let config = AgentConfig::new(SwitchId::new(1), 4, SEED)
            .map_register(RegId::new(1234), "path_latency");
        let mut sw = P4AuthSwitch::new(config, None);
        sw.chassis_mut()
            .declare_register(RegisterArray::new("path_latency", 8, 64));
        sw
    }

    fn sealed_write(key: Key64, seq: u32, index: u32, value: u64) -> Vec<u8> {
        Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(seq),
            RegisterOp::write_req(RegId::new(1234), index, value),
        )
        .sealed(&mac(), key)
        .encode()
    }

    fn install_local(sw: &mut P4AuthSwitch, key: Key64) {
        sw.install_key(PortId::CPU, key);
    }

    /// §VI-C consistent updates: every frame of its own the agent seals
    /// after a rollover must be stamped with the *new* key version (not
    /// the `KeyVersion::INITIAL` that `Header::new` defaults to) and
    /// verify under the new key only — while requests still sealed under
    /// the previous version keep verifying via `KeySlot::select`, and are
    /// answered under it.
    #[test]
    fn sealed_outputs_carry_rolled_key_version() {
        use p4auth_wire::ids::KeyVersion;

        let mut sw = agent();
        let k0 = Key64::new(41);
        let k1 = Key64::new(42);

        // DP-DP channel: probes sealed after a rollover carry version 1.
        sw.install_key(PortId::new(1), k0);
        sw.rollover_key(PortId::new(1), k1);
        let bytes = sw.seal_probe(PortId::new(1), 7, vec![1, 2, 3]).unwrap();
        let probe = Message::decode(&bytes).unwrap();
        assert_eq!(probe.header().key_version, KeyVersion::INITIAL.next());
        assert!(probe.verify(&mac(), k1));
        assert!(!probe.verify(&mac(), k0));

        // C-DP channel: a request still sealed under the previous version
        // verifies (select() keeps one generation), and its reply goes
        // back under the generation that opened it, so the controller
        // matches it by (version, seq).
        install_local(&mut sw, k0);
        sw.rollover_key(PortId::CPU, k1);
        let out = sw.on_packet(0, PortId::CPU, &sealed_write(k0, 1, 0, 5));
        assert!(out.has_event(&AgentEvent::VerifiedOk));
        let reply = Message::decode(&out.outputs[0].1).unwrap();
        assert_eq!(reply.header().key_version, KeyVersion::INITIAL);
        assert!(reply.verify(&mac(), k0));
        // An alert, a frame of its own, is sealed under the new version.
        let forged = sealed_write(Key64::new(99), 2, 0, 5);
        let out = sw.on_packet(0, PortId::CPU, &forged);
        let alert = Message::decode(&out.outputs[0].1).unwrap();
        assert_eq!(alert.header().key_version, KeyVersion::INITIAL.next());
        assert!(alert.verify(&mac(), k1));
    }

    #[test]
    fn telemetry_tracks_verify_outcomes_alerts_and_keys() {
        let registry = Arc::new(p4auth_telemetry::Registry::with_event_capacity(64));
        let mut sw = agent();
        sw.set_telemetry(registry.clone());
        let k = Key64::new(42);
        install_local(&mut sw, k);

        // One good write, one replay of it, one tampered write.
        let good = sealed_write(k, 1, 0, 7);
        sw.on_packet(1_000, PortId::CPU, &good);
        sw.on_packet(2_000, PortId::CPU, &good);
        let mut tampered = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(9),
            RegisterOp::write_req(RegId::new(1234), 0, 10),
        )
        .sealed(&mac(), k);
        *tampered.body_mut() = Body::Register(RegisterOp::write_req(RegId::new(1234), 0, 11));
        sw.on_packet(3_000, PortId::CPU, &tampered.encode());

        let snap = registry.snapshot();
        assert_eq!(snap.counter("auth_verify_ok", "S1"), Some(1));
        assert_eq!(snap.counter("auth_reject_replayed", "S1"), Some(1));
        assert_eq!(snap.counter("auth_reject_bad_digest", "S1"), Some(1));
        assert_eq!(snap.counter("alerts_emitted", "S1"), Some(2));
        assert_eq!(snap.counter("agent_keys_installed", "S1"), Some(1));

        let kinds: Vec<&'static str> = registry
            .events()
            .to_vec()
            .iter()
            .map(|r| r.event.kind())
            .collect();
        assert!(kinds.contains(&"key_derived"));
        assert!(kinds.contains(&"digest_rejected"));
        assert!(kinds.contains(&"replay_detected"));
        assert!(kinds.contains(&"alert_emitted"));

        // The register-op cost histogram saw all three pipeline passes.
        let hist = snap.histogram("agent_register_op_cost_ns", "S1").unwrap();
        assert_eq!(hist.count, 3);
        assert!(hist.min > 0);
    }

    /// Sends every data packet back out of its ingress port.
    struct Echo;

    impl InNetworkApp for Echo {
        fn system_id(&self) -> u8 {
            0x7e
        }

        fn setup(&mut self, _chassis: &mut Chassis) {}

        fn on_control(
            &mut self,
            _ctx: &mut PacketContext<'_>,
            _ingress: PortId,
            _payload: &[u8],
        ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
            Ok(Vec::new())
        }

        fn on_data(
            &mut self,
            _ctx: &mut PacketContext<'_>,
            ingress: PortId,
            bytes: &[u8],
        ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
            Ok(vec![(ingress, bytes.to_vec())])
        }
    }

    /// A frame that does not decode is a counted `Malformed` reject on the
    /// C-DP channel, with no alert and never handed to the app; on a data
    /// port it is data traffic.
    #[test]
    fn an_undecodable_frame_is_rejected_on_the_cdp_channel_only() {
        let registry = Arc::new(p4auth_telemetry::Registry::with_event_capacity(16));
        let config = AgentConfig::new(SwitchId::new(1), 4, SEED);
        let mut sw = P4AuthSwitch::new(config, Some(Box::new(Echo)));
        sw.set_telemetry(registry.clone());
        install_local(&mut sw, Key64::new(42));
        let truncated = &sealed_write(Key64::new(42), 1, 0, 7)[..5];
        assert!(Message::decode(truncated).is_err());

        let out = sw.on_packet(0, PortId::CPU, truncated);
        assert_eq!(
            out.events,
            [AgentEvent::Rejected(RejectReason::Malformed)],
            "no alert"
        );
        assert!(out.outputs.is_empty(), "not handed to the app");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("auth_reject_malformed", "S1"), Some(1));
        assert_eq!(snap.counter("alerts_emitted", "S1"), Some(0));
        assert_eq!(sw.stats(), AgentStats::default());

        let out = sw.on_packet(0, PortId::new(1), truncated);
        assert!(out.events.is_empty());
        assert_eq!(out.outputs, [(PortId::new(1), truncated.to_vec())]);
    }

    #[test]
    fn authenticated_write_then_read() {
        let mut sw = agent();
        let k = Key64::new(42);
        install_local(&mut sw, k);

        let out = sw.on_packet(0, PortId::CPU, &sealed_write(k, 1, 3, 777));
        assert!(out.has_event(&AgentEvent::VerifiedOk));
        assert!(out.has_event(&AgentEvent::RegisterWritten {
            name: "path_latency".into(),
            index: 3,
            value: 777
        }));
        // The ack response verifies under the local key and echoes the seq.
        let reply = Message::decode(&out.outputs[0].1).unwrap();
        assert!(reply.verify(&mac(), k));
        assert_eq!(reply.header().seq_num, SeqNum::new(1));
        assert!(matches!(
            reply.body(),
            Body::Register(RegisterOp::Ack { value: 0, .. })
        ));

        let read = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(2),
            RegisterOp::read_req(RegId::new(1234), 3),
        )
        .sealed(&mac(), k)
        .encode();
        let out = sw.on_packet(0, PortId::CPU, &read);
        let reply = Message::decode(&out.outputs[0].1).unwrap();
        assert!(matches!(
            reply.body(),
            Body::Register(RegisterOp::Ack { value: 777, .. })
        ));
        assert_eq!(sw.stats().acks, 2);
    }

    #[test]
    fn tampered_write_rejected_with_alert_only() {
        let mut sw = agent();
        let k = Key64::new(42);
        install_local(&mut sw, k);

        // Adversary alters the value after sealing (the §II-A scenario).
        let mut msg = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::write_req(RegId::new(1234), 0, 10),
        )
        .sealed(&mac(), k);
        *msg.body_mut() = Body::Register(RegisterOp::write_req(RegId::new(1234), 0, 999_999));
        let out = sw.on_packet(0, PortId::CPU, &msg.encode());

        assert!(out.has_event(&AgentEvent::Rejected(RejectReason::BadDigest)));
        assert!(out.has_event(&AgentEvent::AlertSent(AlertKind::DigestMismatch)));
        // No write happened.
        assert_eq!(
            sw.chassis()
                .register("path_latency")
                .unwrap()
                .read(0)
                .unwrap(),
            0
        );
        // The alert on the CPU port is the only frame: no nAck.
        assert_eq!(out.outputs.len(), 1);
        let alert = Message::decode(&out.outputs[0].1).unwrap();
        assert!(matches!(
            alert.body(),
            Body::Alert(Alert {
                kind: AlertKind::DigestMismatch,
                offending_seq,
                ..
            }) if *offending_seq == SeqNum::new(1)
        ));
        assert_eq!(sw.stats().digest_failures, 1);
        assert_eq!(sw.stats().nacks, 0);
    }

    #[test]
    fn replayed_request_rejected() {
        let mut sw = agent();
        let k = Key64::new(42);
        install_local(&mut sw, k);

        let bytes = sealed_write(k, 5, 0, 1);
        let first = sw.on_packet(0, PortId::CPU, &bytes);
        assert!(first.has_event(&AgentEvent::VerifiedOk));
        let replayed = sw.on_packet(10, PortId::CPU, &bytes);
        assert!(
            replayed.has_event(&AgentEvent::Rejected(RejectReason::Replayed {
                last_accepted: SeqNum::new(5)
            }))
        );
        assert!(replayed.has_event(&AgentEvent::AlertSent(AlertKind::SeqMismatch)));
        assert_eq!(sw.stats().replays, 1);
    }

    #[test]
    fn unknown_register_nacked() {
        let mut sw = agent();
        let k = Key64::new(42);
        install_local(&mut sw, k);
        let req = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::read_req(RegId::new(9999), 0),
        )
        .sealed(&mac(), k)
        .encode();
        let out = sw.on_packet(0, PortId::CPU, &req);
        let reply = Message::decode(&out.outputs[0].1).unwrap();
        assert!(matches!(
            reply.body(),
            Body::Register(RegisterOp::Nack {
                reason: NackReason::UnknownRegister,
                ..
            })
        ));
    }

    #[test]
    fn out_of_range_index_nacked() {
        let mut sw = agent();
        let k = Key64::new(42);
        install_local(&mut sw, k);
        let out = sw.on_packet(0, PortId::CPU, &sealed_write(k, 1, 999, 5));
        let reply = Message::decode(&out.outputs[0].1).unwrap();
        assert!(matches!(
            reply.body(),
            Body::Register(RegisterOp::Nack {
                reason: NackReason::IndexOutOfRange,
                ..
            })
        ));
    }

    #[test]
    fn baseline_mode_skips_verification() {
        let config = AgentConfig::new(SwitchId::new(1), 2, SEED)
            .map_register(RegId::new(7), "r")
            .insecure_baseline();
        let mut sw = P4AuthSwitch::new(config, None);
        sw.chassis_mut()
            .declare_register(RegisterArray::new("r", 2, 64));
        // Unsigned request: accepted in baseline mode (this is DP-Reg-RW —
        // and exactly what the adversary exploits).
        let req = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::write_req(RegId::new(7), 0, 123),
        )
        .encode();
        let out = sw.on_packet(0, PortId::CPU, &req);
        assert!(out.has_event(&AgentEvent::RegisterWritten {
            name: "r".into(),
            index: 0,
            value: 123
        }));
        assert_eq!(sw.chassis().register("r").unwrap().read(0).unwrap(), 123);
    }

    #[test]
    fn eak_exchange_derives_k_auth() {
        let mut sw = agent();
        let salt1 = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(1),
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: 0xaaaa,
            },
        )
        .sealed(&mac(), SEED)
        .encode();
        let out = sw.on_packet(0, PortId::CPU, &salt1);
        assert!(sw.has_auth_key());
        assert!(out.has_event(&AgentEvent::AuthKeyDerived));
        // Salt2's digest covers Salt1's salt (transcript binding).
        let frame = &out.outputs[0].1;
        let reply = Message::decode(frame).unwrap();
        assert!(!reply.verify(&mac(), SEED));
        let transcript = eak::transcript(0xaaaa);
        assert!(p4auth_wire::verify_bound_frame(
            &mac(),
            SEED,
            frame,
            &transcript
        ));
        assert!(matches!(
            reply.body(),
            Body::KeyExchange(KeyExchange::EakSalt {
                step: EakStep::Salt2,
                ..
            })
        ));
    }

    /// A reboot must not replay the first boot's randomness: the same
    /// `Salt1` answered before and after a reboot gets two different
    /// `Salt2` salts (and with them two different `K_auth`s).
    #[test]
    fn a_rebooted_switch_draws_fresh_salts() {
        let mut sw = agent();
        let salt1 = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(1),
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: 0xaaaa,
            },
        )
        .sealed(&mac(), SEED)
        .encode();
        let salt2 = |sw: &mut P4AuthSwitch| {
            let out = sw.on_packet(0, PortId::CPU, &salt1);
            match *Message::decode(&out.outputs[0].1).unwrap().body() {
                Body::KeyExchange(KeyExchange::EakSalt { salt, .. }) => salt,
                ref other => panic!("not a Salt2: {other:?}"),
            }
        };
        let first = salt2(&mut sw);
        sw.reboot();
        let second = salt2(&mut sw);
        assert_ne!(first, second, "the reboot replayed its first boot's salt");
        sw.reboot();
        let third = salt2(&mut sw);
        assert!(
            third != first && third != second,
            "nor does a second reboot"
        );
    }

    #[test]
    fn eak_with_wrong_seed_rejected() {
        let mut sw = agent();
        let salt1 = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(1),
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: 1,
            },
        )
        .sealed(&mac(), Key64::new(0xbad))
        .encode();
        let out = sw.on_packet(0, PortId::CPU, &salt1);
        assert!(!sw.has_auth_key());
        assert!(out.has_event(&AgentEvent::AlertSent(AlertKind::KeyExchangeFailure)));
    }

    // The four tests below pin the verdicts of the `unwrap`/`expect`
    // reachability audit (DESIGN §"Panic-site audit"): each drives the
    // nearest wire input to a former or remaining panic site.

    #[test]
    fn register_responses_reaching_the_data_plane_are_ignored() {
        let mut sw = agent();
        let (reg, index) = (RegId::new(1234), 0);
        let reason = NackReason::UnknownRegister;
        for op in [
            RegisterOp::Ack {
                reg,
                index,
                value: 7,
            },
            RegisterOp::Nack { reg, index, reason },
        ] {
            let frame = Message::register_request(SwitchId::CONTROLLER, SeqNum::new(1), op);
            let out = sw.on_packet(0, PortId::CPU, &frame.encode());
            assert!(out.outputs.is_empty() && out.events.is_empty());
        }
    }

    #[test]
    fn mapped_but_undeclared_register_is_nacked() {
        // The config maps the id, nobody declared the array: at the
        // parent commit this authenticated request panicked the agent.
        let config =
            AgentConfig::new(SwitchId::new(1), 4, SEED).map_register(RegId::new(9), "gone");
        let mut sw = P4AuthSwitch::new(config, None);
        let k = Key64::new(42);
        install_local(&mut sw, k);
        for (seq, op) in [
            RegisterOp::read_req(RegId::new(9), 0),
            RegisterOp::write_req(RegId::new(9), 0, 5),
        ]
        .into_iter()
        .enumerate()
        {
            let seq = SeqNum::new(seq as u32 + 1);
            let frame = Message::register_request(SwitchId::CONTROLLER, seq, op).sealed(&mac(), k);
            let out = sw.on_packet(0, PortId::CPU, &frame.encode());
            let reply = Message::decode(&out.outputs[0].1).unwrap();
            assert!(matches!(
                reply.body(),
                Body::Register(RegisterOp::Nack {
                    reason: NackReason::UnknownRegister,
                    ..
                })
            ));
        }
        assert_eq!(sw.stats().nacks, 2);
    }

    /// The mapping resolves a register's handle at its first use, not in
    /// `new`: harnesses declare through `chassis_mut()` after it. A miss
    /// is not remembered, so declaring later turns `Nack` into `Ack`.
    #[test]
    fn register_declared_after_new_is_found_and_a_miss_is_not_cached() {
        let config =
            AgentConfig::new(SwitchId::new(1), 4, SEED).map_register(RegId::new(9), "late");
        let mut sw = P4AuthSwitch::new(config, None);
        let k = Key64::new(42);
        install_local(&mut sw, k);
        let read = |seq: u32| {
            Message::register_request(
                SwitchId::CONTROLLER,
                SeqNum::new(seq),
                RegisterOp::read_req(RegId::new(9), 1),
            )
            .encode_sealed(&mac(), k)
        };
        let reply = |out: &AgentOutput| match Message::decode(&out.outputs[0].1).unwrap().body() {
            Body::Register(op) => *op,
            other => panic!("not a register reply: {other:?}"),
        };

        let before = sw.on_packet(0, PortId::CPU, &read(1));
        assert!(matches!(
            reply(&before),
            RegisterOp::Nack {
                reason: NackReason::UnknownRegister,
                ..
            }
        ));
        sw.chassis_mut()
            .declare_register(RegisterArray::new("late", 2, 64));
        let after = sw.on_packet(0, PortId::CPU, &read(2));
        assert!(matches!(reply(&after), RegisterOp::Ack { value: 0, .. }));
        assert_eq!((sw.stats().nacks, sw.stats().acks), (1, 1));
    }

    /// The handle the agent keeps addresses the very array the driver
    /// surface (`register_mut(name)`, the §II-A tamper surface) writes.
    #[test]
    fn driver_write_by_name_is_what_the_next_authenticated_read_returns() {
        let mut sw = agent();
        let k = Key64::new(42);
        install_local(&mut sw, k);
        // The first op resolves and keeps the handle.
        let out = sw.on_packet(0, PortId::CPU, &sealed_write(k, 1, 2, 5));
        assert!(out.has_event(&AgentEvent::VerifiedOk));
        sw.chassis_mut()
            .register_mut("path_latency")
            .unwrap()
            .write(2, 0xbad)
            .unwrap();
        let read = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(2),
            RegisterOp::read_req(RegId::new(1234), 2),
        )
        .encode_sealed(&mac(), k);
        let out = sw.on_packet(0, PortId::CPU, &read);
        assert!(out.has_event(&AgentEvent::RegisterRead {
            name: "path_latency".into(),
            index: 2,
            value: 0xbad
        }));
    }

    #[test]
    fn adhkd_offer_with_no_key_installed_is_a_counted_reject() {
        // The key rule names no key (no K_auth yet): the offer must be
        // rejected before the answer path asks for the key that sealed it.
        let mut sw = agent();
        let offer = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(1),
            KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                context: KexContext::LocalInit,
                public_key: 5,
                salt: 6,
            },
        )
        .sealed(&mac(), Key64::new(1));
        let out = sw.on_packet(0, PortId::CPU, &offer.encode());
        assert!(out.has_event(&AgentEvent::Rejected(RejectReason::NoKey)));
        assert!(out.has_event(&AgentEvent::AlertSent(AlertKind::KeyExchangeFailure)));
        assert_eq!(sw.stats().digest_failures, 1);
        assert_eq!(sw.keys(PortId::CPU).current(), None);
    }

    #[test]
    fn mapping_table_is_sized_for_any_register_map() {
        // Two entries per mapping, capacity 2 x mappings, a repeated id
        // overwrites: the two `expect`s in `new` cannot fire.
        let mut config = AgentConfig::new(SwitchId::new(1), 4, SEED);
        for id in (0..300u32).chain([7, 7, 0]) {
            config = config.map_register(RegId::new(id), format!("r{id}"));
        }
        let _ = P4AuthSwitch::new(config, None);
        let _ = P4AuthSwitch::new(AgentConfig::new(SwitchId::new(1), 4, SEED), None);
    }

    /// ROADMAP 2a. A `ReadReq` carries an 8-byte value field the decoder
    /// discards. The digest used to be checked over a re-encoding of the
    /// decoded message, so a MitM could set those bytes and the frame
    /// still verified; it is now checked over the bytes that arrived.
    #[test]
    fn read_request_with_a_nonzero_value_field_is_a_counted_digest_reject() {
        let registry = Arc::new(p4auth_telemetry::Registry::with_event_capacity(16));
        let mut sw = agent();
        sw.set_telemetry(registry.clone());
        let k = Key64::new(42);
        install_local(&mut sw, k);
        let genuine = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(7),
            RegisterOp::read_req(RegId::new(1234), 3),
        )
        .encode_sealed(&mac(), k);
        assert_eq!(genuine[22..30], [0; 8], "the discarded value field");

        for at in 22..30 {
            let mut tampered = genuine.clone();
            tampered[at] = 0xa5;
            // Still decodes to the very same message: only the bytes differ.
            assert_eq!(
                Message::decode(&tampered).unwrap(),
                Message::decode(&genuine).unwrap()
            );
            let out = sw.on_packet(0, PortId::CPU, &tampered);
            assert!(out.has_event(&AgentEvent::Rejected(RejectReason::BadDigest)));
            assert!(!out
                .events
                .iter()
                .any(|e| matches!(e, AgentEvent::VerifiedOk | AgentEvent::RegisterRead { .. })));
            // The alert is the one frame back; no nAck.
            assert!(out.has_event(&AgentEvent::AlertSent(AlertKind::DigestMismatch)));
            assert_eq!(out.outputs.len(), 1);
            let alert = Message::decode(&out.outputs[0].1).unwrap();
            assert!(matches!(alert.body(), Body::Alert(_)));
        }
        assert_eq!(sw.stats().digest_failures, 8);
        assert_eq!(sw.stats().nacks, 0);
        assert_eq!(sw.stats().verified_ok, 0);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("auth_reject_bad_digest", "S1"), Some(8));
        // None of the rejects advanced the replay window: the genuine
        // frame, same sequence number, is still fresh.
        let out = sw.on_packet(0, PortId::CPU, &genuine);
        assert!(out.has_event(&AgentEvent::VerifiedOk));
        assert!(out.has_event(&AgentEvent::RegisterRead {
            name: "path_latency".into(),
            index: 3,
            value: 0
        }));
    }

    /// The same for every other byte `Message::decode` normalises away:
    /// the reserved words of the key-exchange payloads.
    #[test]
    fn reserved_key_exchange_bytes_are_covered_by_the_digest() {
        let k = Key64::new(42);
        let kex = |seq: u32, body: KeyExchange| {
            Message::key_exchange(SwitchId::CONTROLLER, PortId::CPU, SeqNum::new(seq), body)
        };
        // (frame, bytes the decoder discards, key that seals it)
        let cases = [
            (
                kex(
                    1,
                    KeyExchange::EakSalt {
                        step: EakStep::Salt1,
                        salt: 0xaaaa,
                    },
                ),
                18..22,
                SEED,
            ),
            (
                kex(
                    2,
                    KeyExchange::Adhkd {
                        role: AdhkdRole::Offer,
                        context: KexContext::LocalUpdate,
                        public_key: 5,
                        salt: 6,
                    },
                ),
                27..30,
                k,
            ),
            (
                kex(
                    3,
                    KeyExchange::PortKeyInit {
                        peer: SwitchId::new(2),
                        peer_port: PortId::new(1),
                    },
                ),
                17..18,
                k,
            ),
        ];
        for (msg, discarded, key) in cases {
            let mut sw = agent();
            install_local(&mut sw, k);
            let genuine = msg.encode_sealed(&mac(), key);
            for at in discarded {
                let mut tampered = genuine.clone();
                tampered[at] ^= 0x80;
                assert_eq!(
                    Message::decode(&tampered),
                    Message::decode(&genuine),
                    "byte {at} is discarded"
                );
                let out = sw.on_packet(0, PortId::CPU, &tampered);
                assert!(out.has_event(&AgentEvent::Rejected(RejectReason::BadDigest)));
                assert!(out.has_event(&AgentEvent::AlertSent(AlertKind::KeyExchangeFailure)));
            }
            assert!(!sw.has_auth_key());
            assert_eq!(sw.keys(PortId::CPU).current().unwrap(), k, "no rollover");
            // Window untouched: the genuine frame still goes through.
            let out = sw.on_packet(0, PortId::CPU, &genuine);
            assert!(out.has_event(&AgentEvent::VerifiedOk), "{msg:?}");
        }
    }

    /// A key-exchange leg sealed under `K_local` naming a port past the
    /// key register (this agent has 4 ports: slots 0 to 4) is a counted
    /// `Malformed` reject; the same leg sealed under a wrong key is a
    /// `BadDigest` reject, whatever port it names.
    #[test]
    fn key_exchange_for_a_port_past_the_key_register_is_a_counted_reject() {
        let mut sw = agent();
        let k = Key64::new(42);
        install_local(&mut sw, k);
        let sealed = |key: Key64, seq: u32, port: u8, kex: KeyExchange| {
            Message::key_exchange(
                SwitchId::CONTROLLER,
                PortId::new(port),
                SeqNum::new(seq),
                kex,
            )
            .encode_sealed(&mac(), key)
        };
        let offer = KeyExchange::Adhkd {
            role: AdhkdRole::Offer,
            context: KexContext::PortInitRedirect,
            public_key: 7,
            salt: 9,
        };
        let init = KeyExchange::PortKeyInit {
            peer: SwitchId::new(2),
            peer_port: PortId::new(5),
        };
        for frame in [
            sealed(k, 1, 200, offer),
            sealed(k, 2, 5, offer),
            sealed(k, 3, 1, init),
        ] {
            let out = sw.on_packet(0, PortId::CPU, &frame);
            assert!(
                out.has_event(&AgentEvent::Rejected(RejectReason::Malformed)),
                "{:?}",
                out.events
            );
            assert!(out.has_event(&AgentEvent::AlertSent(AlertKind::KeyExchangeFailure)));
            assert_eq!(out.outputs.len(), 1, "the alert only");
        }
        assert_eq!(sw.stats().digest_failures, 0);
        let out = sw.on_packet(0, PortId::CPU, &sealed(Key64::new(7), 4, 200, offer));
        assert!(
            out.has_event(&AgentEvent::Rejected(RejectReason::BadDigest)),
            "{:?}",
            out.events
        );
        assert_eq!(sw.stats().digest_failures, 1);
        let out = sw.on_packet(0, PortId::CPU, &sealed(k, 4, 4, offer));
        assert!(out.has_event(&AgentEvent::KeyInstalled {
            port: PortId::new(4)
        }));
    }

    #[test]
    fn probe_sealing_requires_port_key() {
        let mut sw = agent();
        assert!(sw.seal_probe(PortId::new(1), 1, vec![1, 2]).is_none());
        sw.install_key(PortId::new(1), Key64::new(9));
        let bytes = sw.seal_probe(PortId::new(1), 1, vec![1, 2]).unwrap();
        let msg = Message::decode(&bytes).unwrap();
        assert!(msg.verify(&mac(), Key64::new(9)));
    }

    #[test]
    fn alert_rate_limiting_kicks_in() {
        let config = AgentConfig::new(SwitchId::new(1), 2, SEED).map_register(RegId::new(1), "r");
        let mut sw = P4AuthSwitch::new(config, None);
        sw.chassis_mut()
            .declare_register(RegisterArray::new("r", 1, 64));
        sw.install_key(PortId::CPU, Key64::new(5));

        let forged = |seq: u32| {
            Message::register_request(
                SwitchId::CONTROLLER,
                SeqNum::new(seq),
                RegisterOp::write_req(RegId::new(1), 0, 1),
            )
            .sealed(&mac(), Key64::new(0xbad))
            .encode()
        };
        // ALERT_MAX alerts inside one period...
        for seq in 1..=ALERT_MAX {
            let out = sw.on_packet(u64::from(seq), PortId::CPU, &forged(seq));
            assert!(
                out.has_event(&AgentEvent::AlertSent(AlertKind::DigestMismatch)),
                "alert {seq}"
            );
        }
        // ...then one rate-limited marker, then silence.
        let marker = sw.on_packet(100, PortId::CPU, &forged(ALERT_MAX + 1));
        assert!(marker.has_event(&AgentEvent::AlertSent(AlertKind::RateLimited)));
        let silent = sw.on_packet(101, PortId::CPU, &forged(ALERT_MAX + 2));
        assert!(silent.has_event(&AgentEvent::AlertSuppressed));
        // A new window re-opens alerting.
        let fresh = sw.on_packet(ALERT_PERIOD_NS + 1, PortId::CPU, &forged(ALERT_MAX + 3));
        assert!(fresh.has_event(&AgentEvent::AlertSent(AlertKind::DigestMismatch)));
    }

    #[test]
    fn quarantined_channel_drops_until_fresh_key() {
        let registry = Arc::new(p4auth_telemetry::Registry::with_event_capacity(16));
        let mut sw = agent();
        sw.set_telemetry(registry.clone());
        let k = Key64::new(42);
        install_local(&mut sw, k);
        sw.set_channel_quarantine(PortId::CPU, true);
        assert!(sw.is_quarantined(PortId::CPU));

        // A perfectly valid request is still dropped: the channel key is
        // suspect, so nothing on the channel is trusted.
        let out = sw.on_packet(1_000, PortId::CPU, &sealed_write(k, 1, 0, 5));
        assert!(out.has_event(&AgentEvent::Rejected(RejectReason::Quarantined)));
        // Nothing goes back: no nAck, and no alert either — quarantine
        // drops are the defence acting, not a detection (the controller
        // already knows).
        assert!(out.outputs.is_empty(), "{:?}", out.outputs);
        assert_eq!(sw.stats().quarantine_drops, 1);
        assert_eq!(sw.stats().nacks, 0);
        assert_eq!(sw.stats().digest_failures, 0);
        assert_eq!(
            sw.chassis()
                .register("path_latency")
                .unwrap()
                .read(0)
                .unwrap(),
            0
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("auth_reject_quarantined", "S1"), Some(1));
        assert_eq!(snap.counter("auth_reject_bad_digest", "S1"), Some(0));

        // A fresh key lifts the quarantine and traffic flows again (the
        // pre-rollover generation stays selectable per §VI-C, so a request
        // sealed under it still verifies).
        sw.rollover_key(PortId::CPU, Key64::new(43));
        assert!(!sw.is_quarantined(PortId::CPU));
        let out = sw.on_packet(2_000, PortId::CPU, &sealed_write(k, 2, 0, 5));
        assert!(out.has_event(&AgentEvent::VerifiedOk));
    }

    #[test]
    fn key_exchange_flows_through_quarantine() {
        // The KMP is the quarantine's exit path; locking it out would make
        // quarantine permanent.
        let mut sw = agent();
        sw.set_channel_quarantine(PortId::CPU, true);
        let salt1 = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            SeqNum::new(1),
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: 0xaaaa,
            },
        )
        .sealed(&mac(), SEED)
        .encode();
        let out = sw.on_packet(0, PortId::CPU, &salt1);
        assert!(sw.has_auth_key());
        assert!(out.has_event(&AgentEvent::AuthKeyDerived));
    }

    /// A `portKeyUpdate` retry that races the original: the initiator
    /// re-sends its pending offer rather than starting over, the responder
    /// answers the copy from its cache, and each end derives once, the same
    /// key.
    #[test]
    fn a_repeated_port_key_update_resends_the_pending_offer() {
        let (k_local, k_port) = (Key64::new(42), Key64::new(7));
        let (a_port, b_port) = (PortId::new(2), PortId::new(1));
        let mut a = agent();
        let config = AgentConfig::new(SwitchId::new(2), 4, SEED);
        let mut b = P4AuthSwitch::new(config, None);
        install_local(&mut a, k_local);
        a.install_key(a_port, k_port);
        b.install_key(b_port, k_port);
        let update = |seq| {
            let kex = KeyExchange::PortKeyUpdate {
                peer: SwitchId::new(2),
                peer_port: a_port,
            };
            Message::key_exchange(SwitchId::CONTROLLER, PortId::CPU, SeqNum::new(seq), kex)
                .sealed(&mac(), k_local)
                .encode()
        };
        let rolled = |out: &AgentOutput| {
            out.events
                .iter()
                .filter(|e| matches!(e, AgentEvent::KeyRolled { .. }))
                .count()
        };
        let offers: Vec<Vec<u8>> = [1, 2]
            .into_iter()
            .flat_map(|seq| a.on_packet(0, PortId::CPU, &update(seq)).outputs)
            .map(|(port, frame)| {
                assert_eq!(port, a_port);
                frame
            })
            .collect();
        assert_eq!(offers.len(), 2);
        assert_eq!(
            Message::decode(&offers[0]).unwrap().body(),
            Message::decode(&offers[1]).unwrap().body(),
            "the retry re-sends the pending offer"
        );
        let (mut derived_a, mut derived_b) = (0, 0);
        let mut answers = Vec::new();
        for offer in &offers {
            let out = b.on_packet(0, b_port, offer);
            derived_b += rolled(&out);
            answers.extend(out.outputs.into_iter().map(|(_, frame)| frame));
        }
        assert_eq!(answers.len(), 2, "both copies answered");
        for answer in &answers {
            derived_a += rolled(&a.on_packet(0, a_port, answer));
        }
        assert_eq!((derived_a, derived_b), (1, 1), "each end derives once");
        let key = a.keys(a_port).current();
        assert_ne!(key, Some(k_port));
        assert_eq!(key, b.keys(b_port).current());
    }

    #[test]
    fn digest_work_is_metered_on_the_chassis() {
        let mut sw = agent();
        let k = Key64::new(42);
        install_local(&mut sw, k);
        let before = sw.chassis().hash_meter().verifies;
        let _ = sw.on_packet(0, PortId::CPU, &sealed_write(k, 1, 0, 5));
        assert!(sw.chassis().hash_meter().verifies > before);
    }
}
