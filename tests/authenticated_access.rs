//! Integration: authenticated register access end to end, and the attacks
//! it defeats (paper §V, §VIII).

use p4auth::attacks::{ctrl_mitm, dos, replay};
use p4auth::controller::{ControllerConfig, ControllerEvent};
use p4auth::core::agent::AgentConfig;
use p4auth::core::auth::RejectReason;
use p4auth::dataplane::register::RegisterArray;
use p4auth::netsim::topology::Topology;
use p4auth::primitives::rng::SplitMix64;
use p4auth::systems::harness::Network;
use p4auth::wire::body::{AlertKind, NackReason};
use p4auth::wire::ids::{PortId, RegId, SwitchId};

const REG: RegId = RegId::new(77);
const S1: SwitchId = SwitchId::new(1);

fn network(auth: bool) -> Network {
    let mut net = Network::build(
        Topology::chain(1, 50_000, 200_000),
        1,
        ControllerConfig {
            auth_enabled: auth,
            ..ControllerConfig::default()
        },
        0x00ac_ce55,
        |_| None,
        move |_, config: AgentConfig| {
            let config = config.map_register(REG, "stats");
            if auth {
                config
            } else {
                config.insecure_baseline()
            }
        },
    );
    net.switches[&S1]
        .borrow_mut()
        .chassis_mut()
        .declare_register(RegisterArray::new("stats", 8, 64));
    if auth {
        net.bootstrap_keys();
        let _ = net.take_events();
    }
    net
}

#[test]
fn write_then_read_roundtrip() {
    let mut net = network(true);
    net.controller_write(S1, REG, 3, 4242);
    net.sim.run_to_completion();
    let events = net.take_events();
    assert!(events.contains(&ControllerEvent::WriteAcked {
        switch: S1,
        reg: REG,
        index: 3
    }));

    net.controller_read(S1, REG, 3);
    net.sim.run_to_completion();
    let events = net.take_events();
    assert!(events.contains(&ControllerEvent::ValueRead {
        switch: S1,
        reg: REG,
        index: 3,
        value: 4242
    }));
    assert_eq!(net.set.borrow().core(S1).outstanding(S1), 0);
}

#[test]
fn unknown_register_and_bad_index_yield_nacks() {
    let mut net = network(true);
    net.controller_read(S1, RegId::new(999), 0);
    net.controller_write(S1, REG, 99, 1);
    net.sim.run_to_completion();
    let events = net.take_events();
    assert!(events.contains(&ControllerEvent::Nacked {
        switch: S1,
        reason: NackReason::UnknownRegister
    }));
    assert!(events.contains(&ControllerEvent::Nacked {
        switch: S1,
        reason: NackReason::IndexOutOfRange
    }));
}

#[test]
fn tampered_write_lands_without_p4auth() {
    // The §II-A attack against the undefended baseline.
    let mut net = network(false);
    let count = ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    net.sim.install_tap(
        link,
        SwitchId::CONTROLLER,
        ctrl_mitm::rewrite_write_request(REG, 0, 666, count.clone()),
    );
    net.controller_write(S1, REG, 0, 50);
    net.sim.run_to_completion();
    assert_eq!(*count.borrow(), 1);
    // The forged value is in the data plane.
    assert_eq!(
        net.switches[&S1]
            .borrow()
            .chassis()
            .register("stats")
            .unwrap()
            .read(0)
            .unwrap(),
        666
    );
}

#[test]
fn tampered_write_is_blocked_and_alerted_with_p4auth() {
    let mut net = network(true);
    let count = ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    net.sim.install_tap(
        link,
        SwitchId::CONTROLLER,
        ctrl_mitm::rewrite_write_request(REG, 0, 666, count.clone()),
    );
    net.controller_write(S1, REG, 0, 50);
    net.sim.run_to_completion();
    assert_eq!(*count.borrow(), 1);
    // The write did NOT land.
    assert_eq!(
        net.switches[&S1]
            .borrow()
            .chassis()
            .register("stats")
            .unwrap()
            .read(0)
            .unwrap(),
        0
    );
    // The data plane alerted, and answered nothing: to the controller
    // the write is still outstanding, as if it had been dropped.
    let events = net.take_events();
    assert!(events.contains(&ControllerEvent::AlertReceived {
        switch: S1,
        kind: AlertKind::DigestMismatch
    }));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Nacked { .. })),
        "{events:?}"
    );
    assert_eq!(net.set.borrow().core(S1).outstanding(S1), 1);
}

#[test]
fn tampered_read_response_detected_at_controller() {
    // Fig. 9: misreported statistics are detected by the controller.
    let mut net = network(true);
    net.controller_write(S1, REG, 1, 200);
    net.sim.run_to_completion();
    let _ = net.take_events();

    let count = ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    net.sim.install_tap(
        link,
        S1,
        ctrl_mitm::inflate_read_response(REG, 1, 10, count.clone()),
    );
    net.controller_read(S1, REG, 1);
    net.sim.run_to_completion();
    assert_eq!(*count.borrow(), 1);
    let events = net.take_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            ControllerEvent::Rejected { switch, reason: RejectReason::BadDigest } if *switch == S1
        )),
        "controller must reject the inflated response: {events:?}"
    );
    // And the poisoned value was never surfaced as a read.
    assert!(!events
        .iter()
        .any(|e| matches!(e, ControllerEvent::ValueRead { .. })));
}

#[test]
fn replayed_write_is_rejected() {
    let mut net = network(true);
    let capture = replay::capture_buffer();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    net.sim.install_tap(
        link,
        SwitchId::CONTROLLER,
        replay::record_write_requests(capture.clone()),
    );

    net.controller_write(S1, REG, 2, 7);
    net.sim.run_to_completion();
    let _ = net.take_events();
    assert_eq!(
        net.switches[&S1]
            .borrow()
            .chassis()
            .register("stats")
            .unwrap()
            .read(2)
            .unwrap(),
        7
    );

    // Overwrite with a newer legitimate value, then replay the old frame.
    net.controller_write(S1, REG, 2, 8);
    net.sim.run_to_completion();
    let _ = net.take_events();

    let frames = replay::drain(&capture);
    assert_eq!(frames.len(), 2);
    let old_frame = frames[0].clone();
    // The attacker puts the recorded frame back on the wire.
    net.sim.remove_tap(link, SwitchId::CONTROLLER);
    net.sim
        .inject_frame(SwitchId::CONTROLLER, PortId::new(0), old_frame);
    net.sim.run_to_completion();

    // Replay did not regress the register.
    assert_eq!(
        net.switches[&S1]
            .borrow()
            .chassis()
            .register("stats")
            .unwrap()
            .read(2)
            .unwrap(),
        8
    );
    let events = net.take_events();
    assert!(events.contains(&ControllerEvent::AlertReceived {
        switch: S1,
        kind: AlertKind::SeqMismatch
    }));
}

#[test]
fn forged_request_flood_is_rate_limited() {
    let mut net = network(true);
    let mut rng = SplitMix64::new(0xd05);
    let frames = dos::forged_write_requests(200, REG, &mut rng);
    for f in frames {
        net.sim
            .inject_frame(SwitchId::CONTROLLER, PortId::new(0), f);
    }
    net.sim.run_to_completion();
    let agent = net.switches[&S1].borrow();
    let stats = agent.stats();
    assert_eq!(stats.digest_failures, 200, "every forged request must fail");
    // Alert stream bounded by the limiter (default 64/period) + one marker.
    assert!(
        stats.alerts_sent <= 65,
        "alerts {} not rate limited",
        stats.alerts_sent
    );
    drop(agent);
    let events = net.take_events();
    let rate_limited = events.iter().any(|e| {
        matches!(
            e,
            ControllerEvent::AlertReceived {
                kind: AlertKind::RateLimited,
                ..
            }
        )
    });
    assert!(rate_limited, "controller should see the rate-limit marker");
}

#[test]
fn forged_response_flood_is_rejected_at_controller() {
    let net = network(true);
    let mut rng = SplitMix64::new(7);
    for f in dos::forged_responses(100, S1, &mut rng) {
        let (_, events) = net.set.borrow_mut().on_message(0, S1, &f);
        assert!(matches!(events[0], ControllerEvent::Rejected { .. }));
    }
    assert_eq!(net.set.borrow().stats().rejected, 100);
}
