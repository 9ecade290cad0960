//! Integration: automatic periodic key rollover (§VI-C) — keys advance on
//! schedule, traffic keeps verifying across generations, and rollover
//! composes with in-flight application traffic.

use p4auth::controller::{ControllerConfig, ControllerEvent};
use p4auth::netsim::topology::Topology;
use p4auth::systems::harness::Network;
use p4auth::wire::ids::{KeyVersion, PortId, RegId, SwitchId};

const S1: SwitchId = SwitchId::new(1);
const S2: SwitchId = SwitchId::new(2);
const PERIOD_NS: u64 = 10_000_000; // 10 ms of simulated time

fn network() -> Network {
    let mut net = Network::build(
        Topology::chain(2, 50_000, 200_000),
        1,
        ControllerConfig::default(),
        0x4011,
        |_| None,
        |_, c| c,
    );
    net.bootstrap_keys();
    let _ = net.take_events();
    net
}

#[test]
fn keys_roll_automatically_every_period() {
    let mut net = network();
    net.enable_periodic_rollover(PERIOD_NS);

    let v0 = net.switches[&S1].borrow().keys(PortId::CPU).version();
    assert_eq!(v0, KeyVersion::INITIAL);

    // Run three periods.
    let deadline = net.sim.now() + 3 * PERIOD_NS + PERIOD_NS / 2;
    net.sim.run_until(deadline);

    let v_local = net.switches[&S1].borrow().keys(PortId::CPU).version();
    assert_eq!(
        v_local,
        KeyVersion::new(3),
        "three local rollovers expected"
    );
    let v_port = net.switches[&S1].borrow().keys(PortId::new(2)).version();
    assert_eq!(v_port, KeyVersion::new(3), "three port rollovers expected");

    // Both ends of the link still agree.
    let k1 = net.switches[&S1]
        .borrow()
        .keys(PortId::new(2))
        .current()
        .unwrap();
    let k2 = net.switches[&S2]
        .borrow()
        .keys(PortId::new(1))
        .current()
        .unwrap();
    assert_eq!(k1, k2);

    let events = net.take_events();
    let rolled = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::LocalKeyRolled(_)))
        .count();
    assert_eq!(rolled, 6, "2 switches x 3 periods");
}

#[test]
fn traffic_keeps_verifying_across_rollovers() {
    let mut net = network();
    net.enable_periodic_rollover(PERIOD_NS);

    // Interleave register traffic with rollover periods. While rollover is
    // enabled the timer chain never drains, so everything runs against
    // bounded deadlines.
    for round in 0..5u64 {
        let deadline = net.sim.now() + PERIOD_NS;
        net.sim.run_until(deadline);
        net.controller_read(S1, RegId::new(1), 0);
        let deadline = net.sim.now() + 2_000_000;
        net.sim.run_until(deadline);
        let events = net.take_events();
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ControllerEvent::Rejected { .. })),
            "round {round}: traffic must verify across rollovers: {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ControllerEvent::Nacked { .. })),
            "round {round}: expected a verified nAck for the unknown register"
        );
    }
    // Keys really did advance while traffic flowed.
    let v = net.switches[&S1].borrow().keys(PortId::CPU).version();
    assert!(v.value() >= 4, "version {v} after 5 periods");

    // Disabling the plan lets the event queue drain.
    net.disable_periodic_rollover();
    net.sim.run_to_completion();
}

#[test]
fn rollover_uses_fig14_message_counts() {
    let mut net = network();
    net.enable_periodic_rollover(PERIOD_NS);
    let before = net.sim.stats().frames_delivered;
    let deadline = net.sim.now() + PERIOD_NS + PERIOD_NS / 2;
    net.sim.run_until(deadline);
    let frames = net.sim.stats().frames_delivered - before;
    // One period: 2 local updates (2 msgs each) + 1 port update (3 msgs).
    assert_eq!(frames, 2 * 2 + 3);
}

/// A bulk rollover epoch (the orchestrated path, not the periodic timer)
/// rolls every local key with Table III's two messages per switch: with
/// no loss each offer leaves once, so m switches cost 2m frames.
#[test]
fn bulk_rollover_uses_two_messages_per_switch() {
    const M: u16 = 6;
    let mut net = Network::build(
        Topology::chain(M, 50_000, 200_000),
        1,
        ControllerConfig::default(),
        0x4012,
        |_| None,
        |_, c| c,
    );
    net.bootstrap_keys();
    let before = net.sim.stats().frames_delivered;
    assert_eq!(net.start_bulk_rollover(), Some(1));
    net.sim.run_to_completion();
    assert_eq!(net.sim.stats().frames_delivered - before, 2 * M as u64);
    for id in 1..=M {
        let v = net.switches[&SwitchId::new(id)]
            .borrow()
            .keys(PortId::CPU)
            .version();
        assert_eq!(v, KeyVersion::new(1), "switch {id} rolled once");
    }
}
