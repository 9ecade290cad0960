//! Integration: the NetCache and NetWarden rows of Table I, end to end —
//! controller epochs over C-DP, and the §II-A attack on them with P4Auth
//! on and off (`p4auth::systems::table1`).

use p4auth::controller::ControllerEvent;
use p4auth::systems::harness::Network;
use p4auth::systems::netcache::{self, NetCacheApp, Query};
use p4auth::systems::netwarden::{self, ConnPacket, NetWardenApp};
use p4auth::systems::table1::{self, one_switch, S1};
use p4auth::wire::body::AlertKind;

const DIGEST_MISMATCH: ControllerEvent = ControllerEvent::AlertReceived {
    switch: S1,
    kind: AlertKind::DigestMismatch,
};

fn cache_network() -> Network {
    one_switch(true, 0xca1e, NetCacheApp::boxed, &netcache::reg_ids::ALL, 1)
}

fn send_queries(net: &mut Network, key: u32, n: usize) {
    net.deliver(S1, vec![Query { key }.encode(); n]);
}

fn values_read(events: &[ControllerEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            ControllerEvent::ValueRead { value, .. } => Some(*value),
            _ => None,
        })
        .collect()
}

#[test]
fn netcache_hot_key_promotion_via_authenticated_cdp() {
    let mut net = cache_network();

    // Clients hammer key 7; everything misses initially.
    send_queries(&mut net, 7, 50);
    let slot = Query { key: 7 }.slot();

    // Controller epoch: read the statistics, decide key 7 is hot, install.
    net.controller_read(S1, netcache::reg_ids::QUERY_COUNT, slot);
    net.sim.run_to_completion();
    assert_eq!(values_read(&net.take_events()), [50]);

    net.controller_write(S1, netcache::reg_ids::CACHED_KEY, slot, 7);
    net.controller_write(S1, netcache::reg_ids::CACHED_VALUE, slot, 0xfeed);
    // Epoch reset of the statistics.
    net.controller_write(S1, netcache::reg_ids::QUERY_COUNT, slot, 0);
    net.sim.run_to_completion();
    let _ = net.take_events();

    // Subsequent queries hit at line rate.
    send_queries(&mut net, 7, 20);
    assert_eq!(net.read_register(S1, netcache::regs::HITS, 0), 20);
    assert_eq!(net.read_register(S1, netcache::regs::MISSES, 0), 50);
}

/// Invariant: NetCache serves an installed hot key from the cache.
#[test]
fn netcache_forged_eviction_blocked_by_p4auth() {
    let arm = table1::netcache(true);
    assert!(arm.held, "{arm:?}");
    // The hot key survived the forged eviction, and queries still hit.
    assert_eq!(arm.observed, "hot key cached, 5 of 5 queries hit");
    assert_eq!(arm.detections, 1, "the forged eviction is reported");
    // The nAck answers a request the controller never issued (the forger
    // invented the sequence number), so it surfaces as an unmatched
    // response; the alert identifies the tampering.
    assert!(arm.events.contains(&ControllerEvent::UnmatchedResponse(S1)));
    assert!(arm.events.contains(&DIGEST_MISMATCH), "{:?}", arm.events);
}

#[test]
fn netcache_forged_eviction_lands_without_p4auth() {
    let arm = table1::netcache(false);
    assert!(!arm.held, "the unprotected arm must lose the hot key");
    assert_eq!(arm.observed, "hot key evicted, 0 of 5 queries hit");
}

#[test]
fn netwarden_detection_loop_with_p4auth() {
    let mut net = one_switch(
        true,
        0x1d5,
        NetWardenApp::boxed,
        &netwarden::reg_ids::ALL,
        1,
    );
    let send_conn = |net: &mut Network, ts: &[u32]| {
        net.deliver(
            S1,
            ts.iter()
                .map(|&ts_us| ConnPacket { conn: 5, ts_us }.encode()),
        );
    };

    // A covert-channel-looking connection (conn 5): regular tiny IPDs.
    send_conn(&mut net, &[100, 110, 120, 130, 140]);

    // Controller reads the IPD statistics (NetWarden's report flow).
    net.controller_read(S1, netwarden::reg_ids::IPD_SUM, 5);
    net.controller_read(S1, netwarden::reg_ids::PKT_COUNT, 5);
    net.sim.run_to_completion();
    assert_eq!(values_read(&net.take_events()), [40, 5]);

    // Controller flags the connection (the update the attack targets).
    net.controller_write(S1, netwarden::reg_ids::SUSPECT, 5, 1);
    net.sim.run_to_completion();
    let _ = net.take_events();

    // Subsequent covert traffic is paced.
    send_conn(&mut net, &[150, 160]);
    assert_eq!(net.read_register(S1, netwarden::regs::PACED, 0), 2);
}

/// Invariant: NetWarden keeps pacing every packet of a flagged connection.
#[test]
fn netwarden_flag_clearing_evasion_blocked_by_p4auth() {
    let arm = table1::netwarden(true);
    assert!(arm.held, "{arm:?}");
    assert_eq!(arm.observed, "3 of 3 covert packets paced");
    assert_eq!(arm.detections, 1, "the rewritten update is reported");
    assert!(arm.events.contains(&DIGEST_MISMATCH), "{:?}", arm.events);
}

#[test]
fn netwarden_flag_clearing_evades_detection_without_p4auth() {
    let arm = table1::netwarden(false);
    assert!(!arm.held, "the unprotected arm must stop pacing");
    assert_eq!(arm.observed, "0 of 3 covert packets paced");
}
