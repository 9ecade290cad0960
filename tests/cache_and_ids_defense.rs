//! Integration: the NetCache and NetWarden rows of Table I, end to end —
//! controller epochs over C-DP, the §II-A attack, and P4Auth's defence.

use p4auth::controller::{ControllerConfig, ControllerEvent};
use p4auth::core::agent::AgentConfig;
use p4auth::netsim::topology::Topology;
use p4auth::systems::harness::Network;
use p4auth::systems::netcache::{self, NetCacheApp, Query};
use p4auth::systems::netwarden::{self, ConnPacket, NetWardenApp};
use p4auth::wire::body::AlertKind;
use p4auth::wire::ids::{PortId, SwitchId};

const S1: SwitchId = SwitchId::new(1);

fn cache_network(auth: bool) -> Network {
    Network::build(
        Topology::chain(1, 50_000, 200_000),
        1,
        ControllerConfig {
            auth_enabled: auth,
            ..ControllerConfig::default()
        },
        0xca1e,
        |_| Some(NetCacheApp::boxed()),
        move |_, config: AgentConfig| {
            let config = config
                .map_register(netcache::reg_ids::CACHED_KEY, netcache::regs::CACHED_KEY)
                .map_register(
                    netcache::reg_ids::CACHED_VALUE,
                    netcache::regs::CACHED_VALUE,
                )
                .map_register(netcache::reg_ids::QUERY_COUNT, netcache::regs::QUERY_COUNT);
            if auth {
                config
            } else {
                config.insecure_baseline()
            }
        },
    )
}

fn send_queries(net: &mut Network, key: u32, n: u32) {
    for _ in 0..n {
        let bytes = Query { key }.encode();
        let now = net.sim.now();
        net.sim.with_node(S1, |node, out| {
            node.on_frame(now, PortId::new(9), bytes.clone().into(), out);
        });
    }
    net.sim.run_to_completion();
}

#[test]
fn netcache_hot_key_promotion_via_authenticated_cdp() {
    let mut net = cache_network(true);
    net.bootstrap_keys();
    let _ = net.take_events();

    // Clients hammer key 7; everything misses initially.
    send_queries(&mut net, 7, 50);
    let slot = Query { key: 7 }.slot();

    // Controller epoch: read the statistics, decide key 7 is hot, install.
    net.controller_read(S1, netcache::reg_ids::QUERY_COUNT, slot);
    net.sim.run_to_completion();
    let events = net.take_events();
    let observed = events.iter().find_map(|e| match e {
        ControllerEvent::ValueRead { value, .. } => Some(*value),
        _ => None,
    });
    assert_eq!(observed, Some(50));

    net.controller_write(S1, netcache::reg_ids::CACHED_KEY, slot, 7);
    net.controller_write(S1, netcache::reg_ids::CACHED_VALUE, slot, 0xfeed);
    // Epoch reset of the statistics (the message the Table I attack forges).
    net.controller_write(S1, netcache::reg_ids::QUERY_COUNT, slot, 0);
    net.sim.run_to_completion();
    let _ = net.take_events();

    // Subsequent queries hit at line rate.
    send_queries(&mut net, 7, 20);
    let agent = net.switches[&S1].borrow();
    assert_eq!(
        agent
            .chassis()
            .register(netcache::regs::HITS)
            .unwrap()
            .read(0)
            .unwrap(),
        20
    );
    assert_eq!(
        agent
            .chassis()
            .register(netcache::regs::MISSES)
            .unwrap()
            .read(0)
            .unwrap(),
        50
    );
}

#[test]
fn netcache_forged_eviction_blocked_by_p4auth() {
    let mut net = cache_network(true);
    net.bootstrap_keys();
    let _ = net.take_events();

    let slot = Query { key: 7 }.slot();
    net.controller_write(S1, netcache::reg_ids::CACHED_KEY, slot, 7);
    net.controller_write(S1, netcache::reg_ids::CACHED_VALUE, slot, 0xfeed);
    net.sim.run_to_completion();
    let _ = net.take_events();

    // The adversary forges an eviction (cached_key := 0) without the key.
    let mut rng = p4auth::primitives::rng::SplitMix64::new(13);
    let forged =
        p4auth::attacks::dos::forged_write_requests(1, netcache::reg_ids::CACHED_KEY, &mut rng);
    net.sim
        .inject_frame(SwitchId::CONTROLLER, PortId::new(0), forged[0].clone());
    net.sim.run_to_completion();

    // The hot key survived; the controller was alerted.
    let agent = net.switches[&S1].borrow();
    assert_eq!(
        agent
            .chassis()
            .register(netcache::regs::CACHED_KEY)
            .unwrap()
            .read(slot)
            .unwrap(),
        7
    );
    drop(agent);
    let events = net.take_events();
    // The nAck answers a request the controller never issued (the forger
    // invented the sequence number), so it surfaces as an unmatched
    // response; the alert identifies the tampering.
    assert!(events.contains(&ControllerEvent::UnmatchedResponse(S1)));
    assert!(events.contains(&ControllerEvent::AlertReceived {
        switch: S1,
        kind: AlertKind::DigestMismatch
    }));

    // Queries still hit.
    send_queries(&mut net, 7, 5);
    assert_eq!(
        net.switches[&S1]
            .borrow()
            .chassis()
            .register(netcache::regs::HITS)
            .unwrap()
            .read(0)
            .unwrap(),
        5
    );
}

fn ids_network(auth: bool) -> Network {
    Network::build(
        Topology::chain(1, 50_000, 200_000),
        1,
        ControllerConfig {
            auth_enabled: auth,
            ..ControllerConfig::default()
        },
        0x1d5,
        |_| Some(NetWardenApp::boxed()),
        move |_, config: AgentConfig| {
            let config = config
                .map_register(netwarden::reg_ids::IPD_SUM, netwarden::regs::IPD_SUM)
                .map_register(netwarden::reg_ids::PKT_COUNT, netwarden::regs::PKT_COUNT)
                .map_register(netwarden::reg_ids::SUSPECT, netwarden::regs::SUSPECT);
            if auth {
                config
            } else {
                config.insecure_baseline()
            }
        },
    )
}

fn send_conn(net: &mut Network, conn: u32, ts: &[u32]) {
    for &t in ts {
        let bytes = ConnPacket { conn, ts_us: t }.encode();
        let now = net.sim.now();
        net.sim.with_node(S1, |node, out| {
            node.on_frame(now, PortId::new(9), bytes.clone().into(), out);
        });
    }
    net.sim.run_to_completion();
}

#[test]
fn netwarden_detection_loop_with_p4auth() {
    let mut net = ids_network(true);
    net.bootstrap_keys();
    let _ = net.take_events();

    // A covert-channel-looking connection (conn 5): regular tiny IPDs.
    send_conn(&mut net, 5, &[100, 110, 120, 130, 140]);

    // Controller reads the IPD statistics (NetWarden's report flow).
    net.controller_read(S1, netwarden::reg_ids::IPD_SUM, 5);
    net.controller_read(S1, netwarden::reg_ids::PKT_COUNT, 5);
    net.sim.run_to_completion();
    let events = net.take_events();
    let values: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            ControllerEvent::ValueRead { value, .. } => Some(*value),
            _ => None,
        })
        .collect();
    assert_eq!(values, vec![40, 5]);

    // Controller flags the connection (the update the attack targets).
    net.controller_write(S1, netwarden::reg_ids::SUSPECT, 5, 1);
    net.sim.run_to_completion();
    let _ = net.take_events();

    // Subsequent covert traffic is paced.
    send_conn(&mut net, 5, &[150, 160]);
    assert_eq!(
        net.switches[&S1]
            .borrow()
            .chassis()
            .register(netwarden::regs::PACED)
            .unwrap()
            .read(0)
            .unwrap(),
        2
    );
}

#[test]
fn netwarden_flag_clearing_evasion_blocked_by_p4auth() {
    let mut net = ids_network(true);
    net.bootstrap_keys();
    let _ = net.take_events();

    net.controller_write(S1, netwarden::reg_ids::SUSPECT, 5, 1);
    net.sim.run_to_completion();
    let _ = net.take_events();

    // The adversary tampers a legitimate flag update in flight, turning it
    // into a clear (value 0).
    let count = p4auth::attacks::ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    net.sim.install_tap(
        link,
        SwitchId::CONTROLLER,
        p4auth::attacks::ctrl_mitm::rewrite_write_request(
            netwarden::reg_ids::SUSPECT,
            5,
            0,
            count.clone(),
        ),
    );
    // The controller re-asserts the flag; the adversary rewrites it to 0.
    net.controller_write(S1, netwarden::reg_ids::SUSPECT, 5, 1);
    net.sim.run_to_completion();
    assert_eq!(*count.borrow(), 1);

    // The flag survives (the tampered write was rejected) and the covert
    // channel keeps being paced.
    assert_eq!(
        net.switches[&S1]
            .borrow()
            .chassis()
            .register(netwarden::regs::SUSPECT)
            .unwrap()
            .read(5)
            .unwrap(),
        1
    );
    send_conn(&mut net, 5, &[200]);
    assert_eq!(
        net.switches[&S1]
            .borrow()
            .chassis()
            .register(netwarden::regs::PACED)
            .unwrap()
            .read(0)
            .unwrap(),
        1
    );
    let events = net.take_events();
    assert!(events.iter().any(|e| matches!(
        e,
        ControllerEvent::AlertReceived {
            kind: AlertKind::DigestMismatch,
            ..
        }
    )));
}
