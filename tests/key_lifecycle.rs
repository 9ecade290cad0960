//! Integration: the full key-management lifecycle over the simulated
//! network (paper §VI, Fig. 14).

use p4auth::controller::{ControllerConfig, ControllerEvent};
use p4auth::netsim::topology::Topology;
use p4auth::systems::harness::{ControllerNode, Network};
use p4auth::wire::ids::{PortId, SwitchId};

fn network(n: u16) -> Network {
    Network::build(
        Topology::chain(n, 50_000, 200_000),
        1,
        ControllerConfig::default(),
        0x11fe_c1c1e,
        |_| None,
        |_, c| c,
    )
}

fn inject(net: &mut Network, outgoing: Vec<p4auth::controller::Outgoing>) {
    for o in outgoing {
        net.sim.inject_frame(
            SwitchId::CONTROLLER,
            ControllerNode::port_for(o.to),
            o.bytes,
        );
    }
}

#[test]
fn bootstrap_establishes_local_and_port_keys_everywhere() {
    let mut net = network(4);
    net.bootstrap_keys();

    for (id, sw) in &net.switches {
        let sw = sw.borrow();
        assert!(sw.has_auth_key(), "{id}: EAK did not complete");
        assert!(sw.keys(PortId::CPU).is_installed(), "{id}: no local key");
        assert!(net.set.borrow().has_local_key(*id));
    }
    // Every DP-DP link has port keys on both ends.
    for link in net.sim.topology().links() {
        if link.a.node.is_controller() || link.b.node.is_controller() {
            continue;
        }
        for (node, port) in [(link.a.node, link.a.port), (link.b.node, link.b.port)] {
            assert!(
                net.switches[&node].borrow().keys(port).is_installed(),
                "{node}:{port} missing port key"
            );
        }
    }
    let events = net.take_events();
    let installed = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::LocalKeyInstalled(_)))
        .count();
    assert_eq!(installed, 4);
}

#[test]
fn port_key_init_agrees_between_neighbours_without_controller_learning_it() {
    let mut net = network(2);
    net.bootstrap_keys();

    // The two ends of the S1-S2 link derived the same key.
    let k1 = net.switches[&SwitchId::new(1)]
        .borrow()
        .keys(PortId::new(2))
        .current()
        .expect("installed");
    let k2 = net.switches[&SwitchId::new(2)]
        .borrow()
        .keys(PortId::new(1))
        .current()
        .expect("installed");
    assert_eq!(k1, k2, "port key disagreement");

    // The controller redirected the exchange but never derived the key:
    // probes sealed with the port key verify between the switches but not
    // under anything the controller holds. (Structural check: the
    // Controller type has no port-key storage at all; we additionally
    // check the derived key differs from both local keys, which the
    // controller does hold.)
    let local1 = net.switches[&SwitchId::new(1)]
        .borrow()
        .keys(PortId::CPU)
        .current()
        .unwrap();
    let local2 = net.switches[&SwitchId::new(2)]
        .borrow()
        .keys(PortId::CPU)
        .current()
        .unwrap();
    assert_ne!(k1, local1);
    assert_ne!(k1, local2);
}

#[test]
fn local_key_rollover_changes_key_and_preserves_connectivity() {
    let mut net = network(2);
    net.bootstrap_keys();
    let s1 = SwitchId::new(1);
    let before = net.switches[&s1]
        .borrow()
        .keys(PortId::CPU)
        .current()
        .unwrap();

    let out = net.set.borrow_mut().core_mut(s1).local_key_update(s1);
    inject(&mut net, out);
    net.sim.run_to_completion();

    let after = net.switches[&s1]
        .borrow()
        .keys(PortId::CPU)
        .current()
        .unwrap();
    assert_ne!(before, after, "rollover must change the key");
    let events = net.take_events();
    assert!(events.contains(&ControllerEvent::LocalKeyRolled(s1)));

    // Authenticated register traffic still works after rollover (register
    // is unknown, but the *digest* must verify — we expect a clean nAck,
    // not a rejection).
    net.controller_read(s1, p4auth::wire::ids::RegId::new(1), 0);
    net.sim.run_to_completion();
    let events = net.take_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Nacked { .. })),
        "expected a verified nAck, got {events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Rejected { .. })),
        "post-rollover traffic must verify: {events:?}"
    );
}

#[test]
fn port_key_rollover_is_direct_and_agrees() {
    let mut net = network(2);
    net.bootstrap_keys();
    let s1 = SwitchId::new(1);
    let s2 = SwitchId::new(2);
    let before = net.switches[&s1]
        .borrow()
        .keys(PortId::new(2))
        .current()
        .unwrap();

    let frames_before = net.sim.stats().frames_delivered;
    let out = net
        .set
        .borrow_mut()
        .core_mut(s1)
        .port_key_update(s1, PortId::new(2), s2);
    inject(&mut net, out);
    net.sim.run_to_completion();
    let frames_used = net.sim.stats().frames_delivered - frames_before;

    let k1 = net.switches[&s1]
        .borrow()
        .keys(PortId::new(2))
        .current()
        .unwrap();
    let k2 = net.switches[&s2]
        .borrow()
        .keys(PortId::new(1))
        .current()
        .unwrap();
    assert_ne!(k1, before);
    assert_eq!(k1, k2);
    // Fig. 14(d): exactly 3 messages — one portKeyUpdate + 2 direct DP-DP.
    assert_eq!(frames_used, 3, "port key update should use 3 messages");
}

#[test]
fn repeated_rollovers_stay_consistent() {
    let mut net = network(2);
    net.bootstrap_keys();
    let s1 = SwitchId::new(1);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..5 {
        let out = net.set.borrow_mut().core_mut(s1).local_key_update(s1);
        inject(&mut net, out);
        net.sim.run_to_completion();
        let k = net.switches[&s1]
            .borrow()
            .keys(PortId::CPU)
            .current()
            .unwrap();
        assert!(seen.insert(k.expose()), "key reuse across rollovers");
    }
    // Channel still healthy.
    net.controller_read(s1, p4auth::wire::ids::RegId::new(9), 0);
    net.sim.run_to_completion();
    let events = net.take_events();
    assert!(!events
        .iter()
        .any(|e| matches!(e, ControllerEvent::Rejected { .. })));
}

#[test]
fn link_up_event_triggers_port_key_initialization() {
    // Build a 2-switch net, take the DP link down and up again: the
    // controller's LLDP-style reaction (§VI-C) must re-initialize the port
    // keys automatically.
    let mut net = network(2);
    net.bootstrap_keys();
    let (link, _) = net
        .sim
        .topology()
        .link_at(SwitchId::new(1), PortId::new(2))
        .unwrap();
    net.sim.set_link_state(link, false);
    net.sim.set_link_state(link, true);
    net.sim.run_to_completion();
    let events = net.take_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ControllerEvent::PortExchangeRedirected { .. })),
        "link-up should drive a fresh port-key exchange: {events:?}"
    );
}
