//! Integration: protocol robustness under message loss and mid-exchange
//! failures. Key exchanges are stateless enough to restart: the
//! controller's `retry_stalled` re-drives anything pending.

use p4auth::controller::{ControllerConfig, ControllerEvent};
use p4auth::netsim::fattree::FatTree;
use p4auth::netsim::fault::FaultPlan;
use p4auth::netsim::sim::TapAction;
use p4auth::netsim::time::SimTime;
use p4auth::netsim::topology::Topology;
use p4auth::systems::harness::{ControllerNode, Network};
use p4auth::wire::ids::{PortId, RegId, SwitchId};
use std::cell::RefCell;
use std::rc::Rc;

const S1: SwitchId = SwitchId::new(1);
const S2: SwitchId = SwitchId::new(2);

fn network() -> Network {
    Network::build(
        Topology::chain(2, 50_000, 200_000),
        1,
        ControllerConfig::default(),
        0xfa11,
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

/// A tap that drops the first `n` frames, then forwards everything.
fn drop_first_n(n: u64) -> (p4auth::netsim::sim::Tap, Rc<RefCell<u64>>) {
    let dropped = Rc::new(RefCell::new(0u64));
    let d = dropped.clone();
    let tap = Box::new(move |_now, _f, _t, _p: &mut _| {
        if *d.borrow() < n {
            *d.borrow_mut() += 1;
            TapAction::Drop
        } else {
            TapAction::Forward
        }
    });
    (tap, dropped)
}

#[test]
fn lost_eak_salt_is_recovered_by_retry() {
    let mut net = network();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    // Drop the first C→DP frame (EAK salt #1).
    let (tap, dropped) = drop_first_n(1);
    net.sim.install_tap(link, SwitchId::CONTROLLER, tap);

    let out = net.set.borrow_mut().core_mut(S1).local_key_init(S1);
    inject(&mut net, out);
    net.sim.run_to_completion();
    assert_eq!(*dropped.borrow(), 1);
    assert!(
        !net.set.borrow().has_local_key(S1),
        "init must have stalled"
    );

    // Operator/timer-driven retry.
    let out = net.set.borrow_mut().core_mut(S1).retry_stalled();
    assert!(!out.is_empty(), "a stalled exchange must be retried");
    inject(&mut net, out);
    net.sim.run_to_completion();
    assert!(net.set.borrow().has_local_key(S1));
    assert!(net.switches[&S1].borrow().keys().local().is_installed());
}

#[test]
fn lost_adhkd_answer_is_recovered_by_retry() {
    let mut net = network();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    // Let EAK complete (salt #2 is the first DP→C frame); drop the ADHKD
    // answer (the second DP→C frame).
    let dropped = Rc::new(RefCell::new(0u64));
    let d = dropped.clone();
    net.sim.install_tap(
        link,
        S1,
        Box::new(move |_now, _f, _t, p: &mut _| {
            // Drop exactly the second switch→controller frame.
            *d.borrow_mut() += 1;
            if *d.borrow() == 2 {
                return TapAction::Drop;
            }
            let _ = p;
            TapAction::Forward
        }),
    );

    let out = net.set.borrow_mut().core_mut(S1).local_key_init(S1);
    inject(&mut net, out);
    net.sim.run_to_completion();
    assert!(
        net.set.borrow().core(S1).has_auth_key(S1),
        "EAK should have completed"
    );
    assert!(
        !net.set.borrow().has_local_key(S1),
        "ADHKD should have stalled"
    );

    let out = net.set.borrow_mut().core_mut(S1).retry_stalled();
    inject(&mut net, out);
    net.sim.run_to_completion();
    assert!(net.set.borrow().has_local_key(S1));
    // Both sides agree: an authenticated request round-trips.
    net.controller_read(S1, RegId::new(1), 0);
    net.sim.run_to_completion();
    let events = net.take_events();
    assert!(!events
        .iter()
        .any(|e| matches!(e, ControllerEvent::Rejected { .. })));
}

#[test]
fn lost_port_key_leg_is_recovered_by_retry() {
    let mut net = network();
    // Local keys first (cleanly).
    for sw in [S1, S2] {
        let out = net.set.borrow_mut().core_mut(sw).local_key_init(sw);
        inject(&mut net, out);
    }
    net.sim.run_to_completion();

    // Drop the first redirected leg of the port-key exchange.
    let (link, _) = net.sim.topology().link_at(S2, PortId::new(63)).unwrap();
    let (tap, dropped) = drop_first_n(1);
    net.sim.install_tap(link, SwitchId::CONTROLLER, tap);

    let out = net
        .set
        .borrow_mut()
        .port_key_init(0, S1, PortId::new(2), S2, PortId::new(1));
    inject(&mut net, out);
    net.sim.run_to_completion();
    assert_eq!(*dropped.borrow(), 1);
    assert!(
        !net.switches[&S2]
            .borrow()
            .keys()
            .port(PortId::new(1))
            .is_installed(),
        "port key should have stalled on S2"
    );

    let out = net.set.borrow_mut().core_mut(S1).retry_stalled();
    assert!(!out.is_empty());
    inject(&mut net, out);
    net.sim.run_to_completion();
    let k1 = net.switches[&S1]
        .borrow()
        .keys()
        .port(PortId::new(2))
        .current()
        .unwrap();
    let k2 = net.switches[&S2]
        .borrow()
        .keys()
        .port(PortId::new(1))
        .current()
        .unwrap();
    assert_eq!(k1, k2, "retried port keys must agree");
}

#[test]
fn retry_is_a_noop_when_nothing_is_stalled() {
    let mut net = network();
    net.bootstrap_keys();
    let out = net.set.borrow_mut().core_mut(S1).retry_stalled();
    assert!(
        out.is_empty(),
        "healthy controller must not spuriously retry: {out:?}"
    );
}

/// Whether both endpoints are data-plane switches (not the controller,
/// not a modelled host).
fn is_dp_dp(l: &p4auth::netsim::topology::Link) -> bool {
    use p4auth::netsim::topology::HOST_ID_BASE;
    [l.a.node, l.b.node]
        .iter()
        .all(|n| !n.is_controller() && n.value() < HOST_ID_BASE)
}

/// Every DP-DP link's port keys are installed on both endpoints and the
/// two ends hold the same key bytes.
fn assert_dp_dp_keys_agree(net: &Network) {
    for l in net.sim.topology().links() {
        if !is_dp_dp(l) {
            continue;
        }
        let ka = net.switches[&l.a.node]
            .borrow()
            .keys()
            .port(l.a.port)
            .current()
            .unwrap_or_else(|| panic!("no port key at {}:{}", l.a.node, l.a.port));
        let kb = net.switches[&l.b.node]
            .borrow()
            .keys()
            .port(l.b.port)
            .current()
            .unwrap_or_else(|| panic!("no port key at {}:{}", l.b.node, l.b.port));
        assert_eq!(
            ka, kb,
            "port keys disagree across {}-{}",
            l.a.node, l.b.node
        );
    }
}

/// A booted fat-tree(4) network on `n_replicas` controller replicas.
fn booted_fat_tree(n_replicas: usize, seed: u64) -> Network {
    let mut net = Network::build(
        Topology::fat_tree_with_controller(4, 1_000, 200_000),
        n_replicas,
        ControllerConfig::default(),
        seed,
        |_| None,
        |_, c| c,
    );
    net.bootstrap_keys();
    let _ = net.take_events();
    net
}

#[test]
fn link_flap_recovery_reagrees_port_keys() {
    // A DP-DP link on a fat tree flaps; the recovery LinkUp drives a
    // fresh port-key exchange and both ends converge on the same key —
    // under the single controller and under two replicas.
    let ft = FatTree::new(4);
    for n_replicas in [1, 2] {
        let mut net = booted_fat_tree(n_replicas, 0xf1a9);

        let now = net.sim.now().as_ns();
        let (uplink, _) = net
            .sim
            .topology()
            .link_at(ft.edge(0, 0), PortId::new(3))
            .unwrap();
        let mut plan = FaultPlan::new();
        plan.flap(uplink, now + 10_000, now + 2_000_000);
        net.sim.install_fault_plan(&plan);
        net.sim.run_to_completion();

        assert_eq!(net.sim.stats().faults_applied, 2);
        assert_dp_dp_keys_agree(&net);
        let events = net.take_events();
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ControllerEvent::Rejected { .. })),
            "recovery re-keying must verify cleanly ({n_replicas} replicas): {events:?}"
        );
    }
}

#[test]
fn pod_failure_recovery_converges_all_port_keys() {
    // Pod 1's DP-DP links fail as a correlated group and recover (the
    // C-DP control channel models an out-of-band management network —
    // DESIGN §4g). Post-recovery, every link in the fabric must hold
    // agreed port keys again. Two replicas is the regression case for
    // switch-keyed redirect leases: the recovery starts several
    // cross-partition exchanges that share a switch at the same instant.
    let ft = FatTree::new(4);
    for n_replicas in [1, 2] {
        let mut net = booted_fat_tree(n_replicas, 0x90d1);

        let now = net.sim.now().as_ns();
        let pod_links: Vec<_> = net
            .sim
            .topology()
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                is_dp_dp(l)
                    && (0..2).any(|i| {
                        [ft.agg(1, i), ft.edge(1, i)].contains(&l.a.node)
                            || [ft.agg(1, i), ft.edge(1, i)].contains(&l.b.node)
                    })
            })
            .map(|(i, _)| p4auth::netsim::topology::LinkId(i as u32))
            .collect();
        assert!(!pod_links.is_empty());
        let mut plan = FaultPlan::new();
        plan.correlated_flap(&pod_links, now + 10_000, now + 1_000_000);
        net.sim.install_fault_plan(&plan);
        net.sim.run_to_completion();

        assert_eq!(net.sim.stats().faults_applied, 2 * pod_links.len() as u64);
        assert_dp_dp_keys_agree(&net);
        let events = net.take_events();
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ControllerEvent::Rejected { .. })),
            "pod recovery must verify cleanly ({n_replicas} replicas)"
        );
    }
}

#[test]
fn flap_during_rollover_neither_skips_nor_double_rolls() {
    // Regression: a DP-DP link flap spanning a periodic-rollover epoch
    // must not make the epoch skip (flap swallowing the rollover) or run
    // twice (recovery re-triggering it). Oracle: every switch's local key
    // version advances by exactly one across the epoch.
    const PERIOD_NS: u64 = 10_000_000;
    let mut net = network();
    net.bootstrap_keys();
    let _ = net.take_events();
    net.enable_periodic_rollover(PERIOD_NS);

    let baseline: Vec<(SwitchId, u8)> = [S1, S2]
        .iter()
        .map(|&sw| {
            (
                sw,
                net.switches[&sw].borrow().keys().local().version().value(),
            )
        })
        .collect();

    // Flap the S1-S2 data link across the first rollover instant.
    let now = net.sim.now().as_ns();
    let (dp_link, _) = net.sim.topology().link_at(S1, PortId::new(2)).unwrap();
    let mut plan = FaultPlan::new();
    plan.flap(
        dp_link,
        now + PERIOD_NS - 2_000_000,
        now + PERIOD_NS + 2_000_000,
    );
    net.sim.install_fault_plan(&plan);

    net.sim
        .run_until(SimTime::from_ns(now + PERIOD_NS + PERIOD_NS / 2));
    net.disable_periodic_rollover();
    net.sim.run_to_completion();

    for (sw, v0) in baseline {
        let v = net.switches[&sw].borrow().keys().local().version().value();
        assert_eq!(
            v,
            v0.wrapping_add(1),
            "{sw}: local key version must advance exactly once across the epoch"
        );
    }
    assert_dp_dp_keys_agree(&net);
    let events = net.take_events();
    let rolled = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::LocalKeyRolled(_)))
        .count();
    assert_eq!(rolled, 2, "one rollover per switch, exactly");
}

#[test]
fn register_requests_survive_response_loss() {
    // Responses can be lost; the outstanding map tracks them and the
    // controller can re-issue (idempotent read).
    let mut net = network();
    net.bootstrap_keys();
    let _ = net.take_events();

    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    let (tap, _) = drop_first_n(1);
    net.sim.install_tap(link, S1, tap);

    net.controller_read(S1, RegId::new(1), 0);
    net.sim.run_to_completion();
    assert_eq!(
        net.set.borrow().core(S1).outstanding(S1),
        1,
        "response was lost"
    );

    // Re-issue; the tap now forwards.
    net.controller_read(S1, RegId::new(1), 0);
    net.sim.run_to_completion();
    let events = net.take_events();
    assert!(events
        .iter()
        .any(|e| matches!(e, ControllerEvent::Nacked { .. })));
    assert_eq!(
        net.set.borrow().core(S1).outstanding(S1),
        1,
        "only the lost one remains"
    );
}
