//! The one file that names program types.
//!
//! Everything else in the benchmark works on plain integers, byte vectors
//! and the small structs defined here, so a PR that moves or renames a
//! program API needs a follow-up in this file only. The pinned symbols are
//! listed in `README.md`; keep the two in step.
//!
//! Nothing here is timed: every function is a thin forwarder, and the
//! callers in `workloads.rs` / `probes.rs` put their spans and clocks
//! around the calls.

use crate::stats::Rng;
use p4auth_controller::{ControllerConfig, ControllerEvent, Outgoing, ReplicaSet};
use p4auth_core::adhkd::{self, AdhkdInitiator};
use p4auth_core::agent::{AgentConfig, AgentEvent, P4AuthSwitch};
use p4auth_dataplane::register::RegisterArray;
use p4auth_dataplane::{Chassis, ChassisConfig, Packet};
use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::frame::FrameBytes;
use p4auth_netsim::sched::{CalendarQueue, Scheduler, SchedulerKind};
use p4auth_netsim::sim::{Outbox, SimNode, Simulator};
use p4auth_netsim::time::SimTime;
use p4auth_netsim::topology::{Endpoint, Topology};
use p4auth_primitives::dh::DhParams;
use p4auth_primitives::kdf::{Kdf, KdfConfig};
use p4auth_primitives::mac::{HalfSipHashMac, Mac};
use p4auth_primitives::rng::SplitMix64;
use p4auth_primitives::{Digest32, Key64, Salt64};
use p4auth_systems::harness::ReplicatedNetwork;
use p4auth_systems::scaleload::Engine;
use p4auth_systems::userscale::{run_users_engine, AggregateMode, UserScaleConfig};
use p4auth_telemetry::{Counter, Event, Histogram, Registry, SpanKind};
use p4auth_wire::ids::{PortId, RegId, SwitchId};
use p4auth_wire::Message;
use p4auth_workloads::flows::ArrivalMix;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

/// Where the 4-byte digest sits in an encoded frame (`wire::header`:
/// hdrType, msgType, seq(4), keyVersion, sender(2), port, digest(4)).
/// The hostile-frame generator flips bytes only inside this range.
pub const DIGEST_BYTES: std::ops::Range<usize> = 10..14;

/// The register every agent maps for the register workloads.
const REG: RegId = RegId::new(1);
const REG_NAME: &str = "bench";

/// Spreads a seed over per-switch secrets and the program's own RNG seeds.
fn mix(v: u64) -> u64 {
    Rng::new(v).next()
}

fn controller_config(seed: u64) -> ControllerConfig {
    let base = ControllerConfig::default();
    ControllerConfig {
        rng_seed: base.rng_seed ^ mix(seed),
        ..base
    }
}

// ------------------------------------------------------------------ fabric

/// Input of one fabric run (`systems::userscale`).
pub struct FabricInput(UserScaleConfig);

/// What a fabric run reports: all simulated-time results, no host times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricCounts {
    pub events: u64,
    pub frames_sent: u64,
    pub frames_delivered: u64,
    pub frames_undeliverable: u64,
    pub frames_tap_dropped: u64,
    pub timers_fired: u64,
    pub sim_ns: u64,
}

/// Fat-tree k=8, amortized aggregates. `load_scale` stretches the per-user
/// idle gap and the sweep window the way `repro -- users` does for its
/// larger rows (idle mean × scale, window × √scale), so 1M users offer the
/// same aggregate load as 10k.
pub fn fabric_input(users: u64, frames_per_user: u32, load_scale: u64, seed: u64) -> FabricInput {
    let mut cfg = UserScaleConfig::for_k(8, users, frames_per_user);
    cfg.seed ^= seed;
    if let ArrivalMix::HeavyTailed(ht) = &mut cfg.mix {
        ht.idle_mean_ns *= load_scale;
    }
    if let AggregateMode::Amortized { window_ns } = &mut cfg.mode {
        *window_ns *= (load_scale as f64).sqrt().round().max(1.0) as u64;
    }
    FabricInput(cfg)
}

/// Builds the fabric and runs it to completion on the calendar scheduler,
/// with no registry.
pub fn fabric_run(input: &FabricInput) -> FabricCounts {
    let run = run_users_engine(&input.0, Engine::Sequential(SchedulerKind::Calendar), None);
    FabricCounts {
        events: run.events,
        frames_sent: run.frames_sent,
        frames_delivered: run.frames_delivered,
        frames_undeliverable: run.stats.frames_undeliverable,
        frames_tap_dropped: run.stats.frames_tapped_dropped,
        timers_fired: run.stats.timers_fired,
        sim_ns: run.sim_ns,
    }
}

// -------------------------------------------------- controller ↔ agent loop

/// A register operation the controller saw complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    Value {
        switch: usize,
        index: u32,
        value: u64,
    },
    WriteAck {
        switch: usize,
        index: u32,
    },
}

impl Completion {
    pub fn switch(&self) -> usize {
        match *self {
            Completion::Value { switch, .. } | Completion::WriteAck { switch, .. } => switch,
        }
    }
}

/// What the controller made of one frame from a switch.
#[derive(Debug, Default)]
pub struct Response {
    /// Register completions, in order.
    pub completions: Vec<Completion>,
    /// Frames the controller wants sent: `(switch, bytes)`.
    pub follow_ups: Vec<(usize, Vec<u8>)>,
}

/// What an agent made of one frame.
#[derive(Debug, Default)]
pub struct AgentReply {
    /// Frames the agent sends back toward the controller.
    pub frames: Vec<Vec<u8>>,
    /// The frame passed digest and replay checks.
    pub verified: bool,
    pub hash_passes: u32,
    pub recirculations: u32,
}

fn switch_index(id: SwitchId) -> usize {
    id.value() as usize - 1
}

fn completions(events: &[ControllerEvent]) -> Vec<Completion> {
    events
        .iter()
        .filter_map(|e| match *e {
            ControllerEvent::ValueRead {
                switch,
                index,
                value,
                ..
            } => Some(Completion::Value {
                switch: switch_index(switch),
                index,
                value,
            }),
            ControllerEvent::WriteAcked { switch, index, .. } => Some(Completion::WriteAck {
                switch: switch_index(switch),
                index,
            }),
            _ => None,
        })
        .collect()
}

fn follow_ups(out: Vec<Outgoing>) -> Vec<(usize, Vec<u8>)> {
    out.into_iter()
        .map(|o| (switch_index(o.to), o.bytes))
        .collect()
}

/// One `ReplicaSet` of one replica talking straight to `P4AuthSwitch`
/// agents: no simulator in between.
pub struct AuthStack {
    set: ReplicaSet,
    agents: Vec<P4AuthSwitch>,
}

impl AuthStack {
    /// Builds the controller and `switches` agents with a `reg_len`-entry
    /// register each, then establishes every local key by pumping the KMP
    /// messages between the two sides.
    pub fn build(seed: u64, switches: usize, reg_len: u32) -> Result<AuthStack, String> {
        let seeds: Vec<(SwitchId, Key64)> = (0..switches)
            .map(|i| {
                (
                    SwitchId::new(i as u16 + 1),
                    Key64::new(mix(seed ^ (i as u64 + 1))),
                )
            })
            .collect();
        let set = ReplicaSet::new(1, controller_config(seed), &seeds);
        let agents = seeds
            .iter()
            .map(|&(id, k_seed)| {
                let mut config = AgentConfig::new(id, 2, k_seed).map_register(REG, REG_NAME);
                config.rng_seed ^= mix(seed);
                let mut agent = P4AuthSwitch::new(config, None);
                agent
                    .chassis_mut()
                    .declare_register(RegisterArray::new(REG_NAME, reg_len, 64));
                agent
            })
            .collect();
        let mut stack = AuthStack { set, agents };

        let mut queue: VecDeque<(usize, Vec<u8>)> = VecDeque::new();
        for &(id, _) in &seeds {
            queue.extend(follow_ups(stack.set.local_key_init(0, id)));
        }
        while let Some((to, bytes)) = queue.pop_front() {
            for frame in stack.deliver(0, to, &bytes).frames {
                queue.extend(stack.respond(0, to, &frame).follow_ups);
            }
        }
        match seeds.iter().find(|(id, _)| !stack.set.has_local_key(*id)) {
            Some((id, _)) => Err(format!("local key init failed for {id}")),
            None => Ok(stack),
        }
    }

    /// `ReplicaSet::read_register`: the sealed request frame.
    pub fn read(&mut self, now_ns: u64, switch: usize, index: u32) -> Vec<u8> {
        let id = SwitchId::new(switch as u16 + 1);
        self.set.read_register(now_ns, id, REG, index).bytes
    }

    /// `ReplicaSet::write_register`: the sealed request frame.
    pub fn write(&mut self, now_ns: u64, switch: usize, index: u32, value: u64) -> Vec<u8> {
        let id = SwitchId::new(switch as u16 + 1);
        self.set.write_register(now_ns, id, REG, index, value).bytes
    }

    /// `P4AuthSwitch::on_packet` on the CPU port.
    pub fn deliver(&mut self, now_ns: u64, switch: usize, frame: &[u8]) -> AgentReply {
        let out = self.agents[switch].on_packet(now_ns, PortId::CPU, frame);
        AgentReply {
            verified: out.has_event(&AgentEvent::VerifiedOk),
            hash_passes: out.hash_passes,
            recirculations: out.recirculations,
            frames: out.outputs.into_iter().map(|(_, bytes)| bytes).collect(),
        }
    }

    /// `ReplicaSet::on_message` for a frame from `switch`.
    pub fn respond(&mut self, now_ns: u64, switch: usize, frame: &[u8]) -> Response {
        let id = SwitchId::new(switch as u16 + 1);
        let (out, events) = self.set.on_message(now_ns, id, frame);
        Response {
            completions: completions(&events),
            follow_ups: follow_ups(out),
        }
    }
}

// ------------------------------------------------------------------- fleet

/// Registry-side counts (all exact).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryCounts {
    pub spans: u64,
    pub spans_dropped: u64,
    pub events: u64,
    pub events_overflowed: u64,
}

/// The full stack inside the simulator: fat-tree k with one controller
/// replica (`systems::harness::ReplicatedNetwork`).
pub struct Fleet {
    net: ReplicatedNetwork,
    ids: Vec<SwitchId>,
    registry: Option<Arc<Registry>>,
}

impl Fleet {
    /// Builds the network, declares a `reg_len`-entry register on every
    /// switch, optionally attaches a registry with event and trace logs,
    /// and bootstraps every local and port key.
    pub fn build(seed: u64, k: u16, reg_len: u32, with_registry: bool) -> Fleet {
        let mut net = ReplicatedNetwork::build(
            Topology::fat_tree_with_controller(k, 1_000, 200_000),
            1,
            controller_config(seed),
            mix(seed),
            |_| None,
            |_, c| c.map_register(REG, REG_NAME),
        );
        let mut ids: Vec<SwitchId> = net.switches.keys().copied().collect();
        ids.sort();
        assert!(
            ids.iter().enumerate().all(|(i, &id)| switch_index(id) == i),
            "fat-tree switch ids are 1..=n"
        );
        for agent in net.switches.values() {
            agent
                .borrow_mut()
                .chassis_mut()
                .declare_register(RegisterArray::new(REG_NAME, reg_len, 64));
        }
        let registry = with_registry.then(|| Arc::new(Registry::with_capacities(4096, 65536)));
        if let Some(r) = &registry {
            net.enable_telemetry(r.clone());
        }
        net.bootstrap_keys();
        net.take_events();
        Fleet { net, ids, registry }
    }

    pub fn switches(&self) -> usize {
        self.ids.len()
    }

    /// `ReplicatedNetwork::controller_read`.
    pub fn read(&mut self, switch: usize, index: u32) {
        self.net.controller_read(self.ids[switch], REG, index);
    }

    /// `ReplicatedNetwork::controller_write`.
    pub fn write(&mut self, switch: usize, index: u32, value: u64) {
        self.net
            .controller_write(self.ids[switch], REG, index, value);
    }

    /// `Simulator::run_to_completion`: events processed.
    pub fn run(&mut self) -> u64 {
        self.net.sim.run_to_completion()
    }

    /// Register completions since the last call, in arrival order.
    pub fn drain(&mut self) -> Vec<Completion> {
        completions(&self.net.take_events())
    }

    /// `ReplicatedNetwork::start_bulk_rollover`; false if refused.
    pub fn start_rollover(&mut self) -> bool {
        self.net.start_bulk_rollover().is_some()
    }

    pub fn rollover_complete(&self) -> bool {
        self.net.set.borrow().rollover_complete()
    }

    pub fn sim_ns(&self) -> u64 {
        self.net.sim.now().as_ns()
    }

    /// `StateDb::writes`.
    pub fn statedb_writes(&self) -> u64 {
        self.net.set.borrow().db().writes()
    }

    pub fn telemetry(&self) -> TelemetryCounts {
        self.registry
            .as_ref()
            .map_or_else(TelemetryCounts::default, |r| TelemetryCounts {
                spans: r.trace().len() as u64,
                spans_dropped: r.trace().dropped(),
                events: r.events().len() as u64,
                events_overflowed: r.events().overflowed(),
            })
    }
}

// ------------------------------------------------------------------ probes

/// A decoded frame (`wire::Message`).
pub struct WireMsg(Message);

pub fn wire_decode(frame: &[u8]) -> Option<WireMsg> {
    Message::decode(frame).ok().map(WireMsg)
}

pub fn wire_encode(msg: &WireMsg) -> Vec<u8> {
    msg.0.encode()
}

/// `Message::digest_input`: the bytes the MAC covers.
pub fn digest_input(msg: &WireMsg) -> Vec<u8> {
    msg.0.digest_input()
}

/// The digest carried in the header.
pub fn wire_digest(msg: &WireMsg) -> u32 {
    msg.0.digest().value()
}

/// `HalfSipHashMac::compute`.
pub struct MacProbe(HalfSipHashMac);

impl MacProbe {
    pub fn new() -> MacProbe {
        MacProbe(HalfSipHashMac::default())
    }

    pub fn compute(&self, key: u64, input: &[u8]) -> u32 {
        self.0.compute(Key64::new(key), &[input]).value()
    }
}

/// `Chassis::process` with a program that verifies one digest and does one
/// register read and one write: the data-plane share of a register op.
pub struct ChassisProbe {
    chassis: Chassis,
    reg_len: u32,
}

impl ChassisProbe {
    pub fn new(reg_len: u32) -> ChassisProbe {
        let mut chassis = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 2));
        chassis.declare_register(RegisterArray::new(REG_NAME, reg_len, 64));
        ChassisProbe { chassis, reg_len }
    }

    /// Returns the value read, or `None` if the chassis refused the program.
    pub fn process(&mut self, key: u64, frame: &[u8], input: &[u8], digest: u32) -> Option<u64> {
        let packet = Packet::from_bytes(PortId::CPU, frame.to_vec());
        let index = digest % self.reg_len;
        let mut read = 0;
        self.chassis
            .process(0, &packet, |ctx, _| {
                let ok = ctx.verify_digest(Key64::new(key), &[input], Digest32::new(digest));
                read = ctx.read_register(REG_NAME, index)?;
                ctx.write_register(REG_NAME, index, read.wrapping_add(u64::from(ok)))?;
                Ok(vec![])
            })
            .ok()
            .map(|_| read)
    }
}

/// `Kdf::derive` at the paper's configuration.
pub struct KdfProbe(Kdf);

impl KdfProbe {
    pub fn new() -> KdfProbe {
        KdfProbe(Kdf::new(KdfConfig::PAPER))
    }

    pub fn derive(&self, key: u64, salt: u64) -> u64 {
        self.0.derive(Key64::new(key), Salt64::new(salt)).expose()
    }

    /// One full ADHKD exchange (offer, answer, both derivations); true if
    /// both ends hold the same key.
    pub fn dh_exchange(&self, seed: u64) -> bool {
        let params = DhParams::recommended();
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(!seed);
        let (initiator, offer) = AdhkdInitiator::start(params, &mut a);
        let (answer, responder_key) = adhkd::respond(params, offer, &mut b, &self.0);
        initiator.finish(answer, &self.0) == responder_key
    }
}

/// `CalendarQueue` pop + schedule at a fixed resident depth (the classic
/// hold model).
pub struct SchedProbe {
    queue: CalendarQueue<u64>,
    seq: u64,
}

impl SchedProbe {
    /// Fills the queue with `depth` events whose times come from `at_ns`.
    pub fn new(depth: usize, mut at_ns: impl FnMut() -> u64) -> SchedProbe {
        let mut queue = CalendarQueue::with_bucket_width(1_024);
        for seq in 0..depth as u64 {
            queue.schedule(SimTime::from_ns(at_ns()), seq, seq);
        }
        SchedProbe {
            queue,
            seq: depth as u64,
        }
    }

    /// Pops the earliest event and schedules one `lead_ns` after it.
    pub fn hold(&mut self, lead_ns: u64) -> u64 {
        let ev = self.queue.pop().expect("hold keeps the queue non-empty");
        self.seq += 1;
        self.queue.schedule(ev.at + lead_ns, self.seq, ev.payload);
        ev.payload
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }
}

/// The benchmark's own trivial node: sends every frame straight back until
/// the shared budget runs out.
struct Bouncer(Rc<Cell<u64>>);

impl SimNode for Bouncer {
    fn on_frame(&mut self, _: SimTime, ingress: PortId, payload: FrameBytes, out: &mut Outbox) {
        if self.0.get() > 0 {
            self.0.set(self.0.get() - 1);
            out.send(ingress, payload);
        }
    }
}

/// Two nodes, one link, `bounces` frame deliveries on `Simulator`: the
/// cost of one event through the queue and dispatch with a node that does
/// nothing. Returns events processed.
pub fn ping_pong(bounces: u64) -> u64 {
    let (a, b) = (SwitchId::new(1), SwitchId::new(2));
    let port = PortId::new(1);
    let mut topo = Topology::new();
    topo.add_node(a).expect("fresh topology");
    topo.add_node(b).expect("fresh topology");
    topo.add_link(Endpoint::new(a, port), Endpoint::new(b, port), 1_000)
        .expect("fresh ports");
    let mut sim = Simulator::new(topo);
    let budget = Rc::new(Cell::new(bounces));
    sim.register_node(a, Box::new(Bouncer(budget.clone())));
    sim.register_node(b, Box::new(Bouncer(budget)));
    sim.inject_frame(a, port, vec![0u8; 34]);
    sim.run_to_completion()
}

/// `FatTree::next_hop_avoiding` on k=8 with nothing down.
pub struct FatTreeProbe(FatTree);

impl FatTreeProbe {
    pub fn new() -> FatTreeProbe {
        FatTreeProbe(FatTree::new(8))
    }

    pub fn switches(&self) -> u16 {
        self.0.switch_count()
    }

    pub fn hosts(&self) -> u16 {
        self.0.host_count()
    }

    pub fn next_hop(&self, switch: u16, host: u16, flow: u64) -> u8 {
        self.0
            .next_hop_avoiding(SwitchId::new(switch + 1), self.0.host(host), flow, |_| {
                false
            })
            .map_or(0, PortId::value)
    }
}

/// `FrameBytes::from_slice` + clone: what a frame costs per hop.
pub fn frame_bytes(bytes: &[u8]) -> usize {
    let frame = FrameBytes::from_slice(bytes);
    let copy = frame.clone();
    frame.len() + copy.len()
}

/// `Registry` / `TraceLog` public calls, on a registry sized like the
/// fleet workload's.
pub struct TelemetryProbe {
    registry: Arc<Registry>,
    counter: Arc<Counter>,
    histogram: Arc<Histogram>,
}

impl TelemetryProbe {
    pub fn new() -> TelemetryProbe {
        let registry = Arc::new(Registry::with_capacities(4096, 65536));
        TelemetryProbe {
            counter: registry.counter_with("probe_counter", "bench"),
            histogram: registry.histogram_with("probe_histogram", "bench"),
            registry,
        }
    }

    pub fn counter_inc(&self) {
        self.counter.inc();
    }

    pub fn histogram_record(&self, value: u64) {
        self.histogram.record(value);
    }

    pub fn event_record(&self, t_ns: u64) {
        self.registry.record(
            t_ns,
            Event::FrameDelivered {
                node: 1,
                port: 1,
                bytes: 34,
            },
        );
    }

    pub fn span(&self, t_ns: u64) {
        let trace = self.registry.trace();
        if let Some(span) = trace.start(SpanKind::FrameDeliver, t_ns, 1) {
            trace.end(span, t_ns + 1, 0, 0);
        }
    }

    /// Snapshot size as a cheap use of the result.
    pub fn snapshot(&self) -> usize {
        self.registry.snapshot().counters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hostile generator relies on this: bytes 10..14 are the digest
    /// and nothing else.
    #[test]
    fn digest_bytes_are_exactly_the_header_digest() {
        let mut stack = AuthStack::build(7, 2, 8).unwrap();
        let frame = stack.write(1_000, 0, 3, 0xfeed);
        let original = Message::decode(&frame).unwrap();
        for at in DIGEST_BYTES {
            let mut flipped = frame.clone();
            flipped[at] ^= 0x40;
            let msg = Message::decode(&flipped).unwrap();
            assert_ne!(msg.digest(), original.digest());
            assert_eq!(msg.digest_input(), original.digest_input());
            assert_eq!(msg.body(), original.body());
        }
    }

    /// The observation recorded in README.md: a read request's value field
    /// is not covered by anything the agent checks.
    #[test]
    fn read_request_value_field_is_malleable() {
        let mut stack = AuthStack::build(7, 2, 8).unwrap();
        let mut frame = stack.read(1_000, 0, 3);
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        assert!(stack.deliver(1_000, 0, &frame).verified);
    }

    #[test]
    fn auth_stack_round_trips_a_write_and_a_read() {
        let mut stack = AuthStack::build(1, 3, 8).unwrap();
        let w = stack.write(10, 2, 5, 99);
        let reply = stack.deliver(10, 2, &w);
        assert!(reply.verified);
        let done = stack.respond(10, 2, &reply.frames[0]).completions;
        assert_eq!(
            done,
            [Completion::WriteAck {
                switch: 2,
                index: 5
            }]
        );
        let r = stack.read(20, 2, 5);
        let reply = stack.deliver(20, 2, &r);
        let done = stack.respond(20, 2, &reply.frames[0]).completions;
        assert_eq!(
            done,
            [Completion::Value {
                switch: 2,
                index: 5,
                value: 99
            }]
        );
    }
}
