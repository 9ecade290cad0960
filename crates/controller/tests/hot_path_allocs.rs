//! Allocation budget of one authenticated register op, layer by layer.
//!
//! `ReplicaSet::read/write_register` → `P4AuthSwitch::on_packet` →
//! `ReplicaSet::on_message` is the path Fig. 18/19 and the `auth_rw`
//! benchmark workload time. At steady state each layer may allocate only
//! what its return type obliges it to: the request frame; the agent's
//! event list, output list and reply frame; the controller's event list.
//! A `Nack` for a register the config maps but nobody declared costs the
//! agent what an accepted op does.
//! And no op writes to the replicas' state table, whatever its outcome:
//! that table holds rollover progress, not per-op outcomes. A regression
//! in either count names the layer here, instead of showing up later as a
//! slower benchmark. (The benchmark's own spans read one higher on
//! `on_packet` and `on_message`: its adapter collects the results.)
//! Nor may being observed cost the heap anything per frame: with a
//! registry attached, a rejected frame allocates what it does with none.
//!
//! One `#[test]`: the counters are per process.

use p4auth_controller::daemons::tables;
use p4auth_controller::statedb::{StateDb, Value};
use p4auth_controller::{ControllerConfig, ControllerEvent, ReplicaSet};
use p4auth_core::agent::{AgentConfig, AgentEvent, P4AuthSwitch};
use p4auth_core::auth::RejectReason;
use p4auth_dataplane::register::RegisterArray;
use p4auth_primitives::Key64;
use p4auth_telemetry::alloc::{allocations, CountingAlloc};
use p4auth_telemetry::Registry;
use p4auth_wire::body::NackReason;
use p4auth_wire::ids::{PortId, RegId, SwitchId};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SW: SwitchId = SwitchId::new(1);
const REG: RegId = RegId::new(1);
/// Mapped in the agent's config, never declared on its chassis.
const UNDECLARED: RegId = RegId::new(2);

/// What `on_packet` allocated at the parent commit (4836725) on a frame
/// with a forged digest and on a replayed one — measured there with this
/// file's loop. The reject path must not pay for the accept path's gain.
const PARENT_FORGED_ALLOCS: u64 = 9;
const PARENT_REPLAYED_ALLOCS: u64 = 9;

/// Runs `f`; returns the allocations the process made meanwhile and `f`'s
/// result.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocations();
    let result = f();
    (allocations() - before, result)
}

/// One replica and one agent with `K_local` established.
fn stack() -> (ReplicaSet, P4AuthSwitch) {
    let seed = Key64::new(0x5eed);
    let mut set = ReplicaSet::new(1, ControllerConfig::default(), &[(SW, seed)]);
    let config = AgentConfig::new(SW, 2, seed)
        .map_register(REG, "r")
        .map_register(UNDECLARED, "undeclared");
    let mut agent = P4AuthSwitch::new(config, None);
    agent
        .chassis_mut()
        .declare_register(RegisterArray::new("r", 8, 64));
    let mut to_agent: Vec<Vec<u8>> = set
        .local_key_init(0, SW)
        .into_iter()
        .map(|o| o.bytes)
        .collect();
    while let Some(frame) = to_agent.pop() {
        for (_, reply) in agent.on_packet(0, PortId::CPU, &frame).outputs {
            to_agent.extend(set.on_message(0, SW, &reply).0.into_iter().map(|o| o.bytes));
        }
    }
    assert!(set.has_local_key(SW));
    (set, agent)
}

/// What 100 forged replies and 100 replayed alerts allocate in
/// `ReplicaSet::on_message`, after 200 of each have been rejected, on a
/// replica observed by `registry` (or by nothing).
fn steady_reject_allocs(registry: Option<Arc<Registry>>) -> u64 {
    let (mut set, mut agent) = stack();
    if let Some(registry) = registry {
        set.set_telemetry(registry);
    }
    let request = set.read_register(0, SW, REG, 0);
    let mut forged_reply = agent
        .on_packet(0, PortId::CPU, &request.bytes)
        .outputs
        .remove(0)
        .1;
    forged_reply[11] ^= 0x10;
    // A forged request makes the agent nAck and raise an alert; the
    // controller accepts the alert once, and from then on it is a replay.
    let mut forged_request = request.bytes;
    forged_request[12] ^= 0x40;
    let mut outputs = agent.on_packet(1, PortId::CPU, &forged_request).outputs;
    assert_eq!(outputs.len(), 2);
    let alert = outputs.remove(1).1;
    let (_, events) = set.on_message(1, SW, &alert);
    assert!(matches!(
        events[..],
        [ControllerEvent::AlertReceived { .. }]
    ));

    let mut steady = 0;
    for i in 0..300u64 {
        let (allocs, (forged, replayed)) = allocations_during(|| {
            (
                set.on_message(2 + i, SW, &forged_reply).1,
                set.on_message(2 + i, SW, &alert).1,
            )
        });
        let rejected = |events: &[ControllerEvent]| match events {
            [ControllerEvent::Rejected { reason, .. }] => Some(*reason),
            _ => None,
        };
        assert_eq!(rejected(&forged), Some(RejectReason::BadDigest));
        assert!(matches!(
            rejected(&replayed),
            Some(RejectReason::Replayed { .. })
        ));
        if i >= 200 {
            steady += allocs;
        }
    }
    steady
}

#[test]
fn hot_path_allocs() {
    let (mut set, mut agent) = stack();
    let mut last_request = Vec::new();
    // The first laps warm every amortised structure; the budget is
    // asserted after.
    for i in 0..6_000u64 {
        let steady = i >= 5_000;
        let index = (i % 8) as u32;
        let (request_allocs, request) = allocations_during(|| match i % 3 {
            0 => set.write_register(i, SW, REG, index, i),
            _ => set.read_register(i, SW, REG, index),
        });
        let (packet_allocs, out) =
            allocations_during(|| agent.on_packet(i, PortId::CPU, &request.bytes));
        assert!(out.has_event(&AgentEvent::VerifiedOk));
        let (message_allocs, (follow_ups, events)) =
            allocations_during(|| set.on_message(i, SW, &out.outputs[0].1));
        assert!(follow_ups.is_empty() && events.len() == 1);
        if steady {
            assert!(request_allocs <= 1, "request: {request_allocs} at op {i}");
            assert!(packet_allocs <= 3, "on_packet: {packet_allocs} at op {i}");
            assert!(
                message_allocs <= 1,
                "on_message: {message_allocs} at op {i}"
            );
        }
        last_request = request.bytes;
    }

    // Reject path. The last accepted request, delivered again, is a replay;
    // the same frame with a digest bit flipped is a forgery (the digest is
    // checked before the window, so its stale sequence number never shows).
    let (replayed_allocs, out) =
        allocations_during(|| agent.on_packet(7_000, PortId::CPU, &last_request));
    assert!(out
        .events
        .iter()
        .any(|e| matches!(e, AgentEvent::Rejected(RejectReason::Replayed { .. }))));
    assert!(
        replayed_allocs <= PARENT_REPLAYED_ALLOCS,
        "replayed frame: {replayed_allocs}"
    );
    let mut forged = last_request.clone();
    forged[12] ^= 0x40;
    let (forged_allocs, out) = allocations_during(|| agent.on_packet(7_001, PortId::CPU, &forged));
    assert!(out.has_event(&AgentEvent::Rejected(RejectReason::BadDigest)));
    assert!(
        forged_allocs <= PARENT_FORGED_ALLOCS,
        "forged frame: {forged_allocs}"
    );

    // State-table writes per op: acks, nacks and forged replies alike
    // leave the count where it was.
    let writes_before = set.db().writes();
    for i in 8_000..9_000u64 {
        let request = match i % 10 {
            9 => set.write_register(i, SW, REG, 99, i), // nAck: index out of range
            0 | 3 | 6 => set.write_register(i, SW, REG, (i % 8) as u32, i),
            _ => set.read_register(i, SW, REG, (i % 8) as u32),
        };
        let reply = agent
            .on_packet(i, PortId::CPU, &request.bytes)
            .outputs
            .remove(0)
            .1;
        if i % 7 == 6 {
            let mut forged = reply.clone();
            forged[11] ^= 0x10; // inside the digest: a counted reject
            set.on_message(i, SW, &forged);
        }
        set.on_message(i, SW, &reply);
    }
    // The mix ran: 6,000 replies accepted above plus these 1,000 (a nAck
    // is an accepted reply), and every seventh also arrived forged.
    let stats = set.stats();
    assert_eq!((stats.responses_ok, stats.rejected), (7_000, 143));
    assert_eq!(
        set.db().writes(),
        writes_before,
        "state-table writes per register op"
    );

    // A mapped but undeclared register: a counted `Nack`, and no more
    // allocations than an `Ack`.
    for i in 9_000..10_000u64 {
        let request = set.read_register(i, SW, UNDECLARED, 0);
        let (packet_allocs, out) =
            allocations_during(|| agent.on_packet(i, PortId::CPU, &request.bytes));
        let (_, events) = set.on_message(i, SW, &out.outputs[0].1);
        assert!(matches!(
            events[..],
            [ControllerEvent::Nacked {
                reason: NackReason::UnknownRegister,
                ..
            }]
        ));
        if i >= 9_500 {
            assert!(
                packet_allocs <= 3,
                "on_packet, undeclared register: {packet_allocs} at op {i}"
            );
        }
    }

    // Observed or not, a rejected frame costs the heap the same: the
    // counters (one per channel among them) and both rings — small enough
    // here to be full before the count starts — are in place by then.
    let unobserved = steady_reject_allocs(None);
    let observed = steady_reject_allocs(Some(Arc::new(Registry::with_capacities(64, 64))));
    assert!(
        observed <= unobserved,
        "200 rejected frames: {observed} allocations with a registry, {unobserved} without"
    );

    // The state table on its own: a value-changing write to a key both
    // maps already hold copies no string.
    let mut db = StateDb::new();
    db.set(tables::KMP, "epoch", Value::U64(0));
    let (steady, ()) = allocations_during(|| {
        for i in 1..=1_000 {
            db.set(tables::KMP, "epoch", Value::U64(i));
        }
    });
    assert_eq!(steady, 0, "StateDb::set of an existing key");
    assert_eq!(db.writes(), 1_001);
}
