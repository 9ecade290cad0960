//! Integration: the SilkRoad (LB) and FlowRadar (measurement) rows of
//! Table I, end to end — the controller's C-DP messages, the §II-A attack
//! on them, and P4Auth's defence. Each test runs both arms: the invariant
//! must hold with P4Auth on and break without it, or it proves nothing.

use p4auth::attacks::{ctrl_mitm, dos};
use p4auth::controller::{ControllerConfig, ControllerEvent};
use p4auth::core::agent::{AgentConfig, InNetworkApp};
use p4auth::core::auth::RejectReason;
use p4auth::netsim::topology::Topology;
use p4auth::primitives::rng::SplitMix64;
use p4auth::systems::flowradar::{self, Export, FlowRadarApp, FrFrame};
use p4auth::systems::harness::Network;
use p4auth::systems::silkroad::{self, ConnFrame, SilkRoadApp};
use p4auth::wire::body::{AlertKind, Body, RegisterOp};
use p4auth::wire::ids::{PortId, RegId, SwitchId};
use p4auth::wire::Message;
use std::collections::HashMap;

const S1: SwitchId = SwitchId::new(1);

/// One switch running `app`, its registers mapped for the controller; with
/// `auth` off both ends run the insecure baseline.
fn network(
    auth: bool,
    seed: u64,
    app: fn() -> Box<dyn InNetworkApp>,
    mappings: &'static [(RegId, &'static str)],
) -> Network {
    let mut net = Network::build(
        Topology::chain(1, 50_000, 200_000),
        1,
        ControllerConfig {
            auth_enabled: auth,
            ..ControllerConfig::default()
        },
        seed,
        |_| Some(app()),
        move |_, config: AgentConfig| {
            let config = mappings
                .iter()
                .fold(config, |c, &(id, name)| c.map_register(id, name));
            if auth {
                config
            } else {
                config.insecure_baseline()
            }
        },
    );
    if auth {
        net.bootstrap_keys();
        let _ = net.take_events();
    }
    net
}

/// Delivers data frames to S1 as if they arrived on a host port.
fn send_data(net: &mut Network, frames: &[Vec<u8>]) {
    for bytes in frames {
        let now = net.sim.now();
        net.sim.with_node(S1, |node, out| {
            node.on_frame(now, PortId::new(9), bytes.clone().into(), out);
        });
    }
    net.sim.run_to_completion();
}

fn register(net: &Network, name: &str, index: u32) -> u64 {
    net.switches[&S1]
        .borrow()
        .chassis()
        .register(name)
        .unwrap()
        .read(index)
        .unwrap()
}

// ----- SilkRoad ------------------------------------------------------------

const SILKROAD_REGS: &[(RegId, &str)] = &[
    (silkroad::reg_ids::TRANSIT, silkroad::regs::TRANSIT),
    (
        silkroad::reg_ids::POOL_VERSION,
        silkroad::regs::POOL_VERSION,
    ),
];

/// A connection whose transit-filter bit is cell 0, the cell
/// `dos::forged_write_requests` writes.
const CONN: u32 = 128;

/// SYN, a pool update mid-migration, a forged transit clear, then the
/// connection's next packet. Returns `sr_broken_affinity` and the
/// controller's events from the attack on.
fn silkroad_forged_clear(auth: bool) -> (u64, Vec<ControllerEvent>) {
    let mut net = network(auth, 0x51_1c, SilkRoadApp::boxed, SILKROAD_REGS);

    // The connection opens on pool 1 and is marked pending in transit.
    send_data(
        &mut net,
        &[ConnFrame {
            conn: CONN,
            first: true,
        }
        .encode()],
    );
    assert_eq!(register(&net, silkroad::regs::TRANSIT, 0), 1);
    // Its connection-table entry is still being installed, so only the
    // transit filter holds its pool (driver-side, as the entry would be).
    net.switches[&S1]
        .borrow_mut()
        .chassis_mut()
        .register_mut(silkroad::regs::CONN_DIP)
        .unwrap()
        .write(CONN % silkroad::CONN_SLOTS, 0)
        .unwrap();
    // The operator's legitimate pool update.
    net.controller_write(S1, silkroad::reg_ids::POOL_VERSION, 0, 2);
    net.sim.run_to_completion();
    let _ = net.take_events();

    // The adversary forges the controller's "clear the transit table"
    // while the connection is still pending. It cannot compute a digest,
    // so it guesses one.
    let mut rng = SplitMix64::new(2);
    let forged = dos::forged_write_requests(1, silkroad::reg_ids::TRANSIT, &mut rng);
    let clears = match Message::decode(&forged[0]).unwrap().body() {
        Body::Register(RegisterOp::WriteReq {
            index: 0, value, ..
        }) => value & 1 == 0,
        other => panic!("not a transit write: {other:?}"),
    };
    assert!(clears, "the forged write must clear the connection's bit");
    net.sim
        .inject_frame(SwitchId::CONTROLLER, PortId::new(0), forged[0].clone());
    net.sim.run_to_completion();

    // The connection's next packet.
    send_data(
        &mut net,
        &[ConnFrame {
            conn: CONN,
            first: false,
        }
        .encode()],
    );
    (
        register(&net, silkroad::regs::BROKEN_AFFINITY, 0),
        net.take_events(),
    )
}

/// Invariant: SilkRoad never remaps an established connection.
#[test]
fn silkroad_forged_transit_clear_is_blocked_by_p4auth() {
    let (broken, events) = silkroad_forged_clear(true);
    assert_eq!(broken, 0, "the pending connection kept its DIP");
    assert!(
        events.contains(&ControllerEvent::AlertReceived {
            switch: S1,
            kind: AlertKind::DigestMismatch
        }),
        "the forged clear is reported: {events:?}"
    );
}

#[test]
fn silkroad_forged_transit_clear_breaks_affinity_without_p4auth() {
    let (broken, _) = silkroad_forged_clear(false);
    assert!(broken > 0, "the unprotected arm must remap the connection");
}

// ----- FlowRadar -----------------------------------------------------------

const FLOWRADAR_REGS: &[(RegId, &str)] = &[
    (flowradar::reg_ids::CELL_COUNT, flowradar::regs::CELL_COUNT),
    (
        flowradar::reg_ids::CELL_FLOWXOR,
        flowradar::regs::CELL_FLOWXOR,
    ),
    (
        flowradar::reg_ids::CELL_PKTSUM,
        flowradar::regs::CELL_PKTSUM,
    ),
];

/// Flow id → packets sent: what the switch really saw.
const FLOWS: [(u32, u64); 3] = [(101, 7), (202, 3), (303, 12)];

/// Runs the controller's export over C-DP with one tampered
/// `CELL_PKTSUM` response in flight. Returns the counts the controller
/// decodes — `None` when it could not assemble a complete export — and
/// its events.
fn flowradar_tampered_export(auth: bool) -> (Option<HashMap<u32, u64>>, Vec<ControllerEvent>) {
    let mut net = network(auth, 0xf10a, FlowRadarApp::boxed, FLOWRADAR_REGS);
    let frames: Vec<Vec<u8>> = FLOWS
        .iter()
        .flat_map(|&(flow, n)| (0..n).map(move |_| FrFrame { flow }.encode()))
        .collect();
    send_data(&mut net, &frames);

    // The adversary inflates the cell the decoder peels first, so the
    // tampering reaches a decoded count.
    let truth = Export::read_from(net.switches[&S1].borrow().chassis());
    let cell = (0..flowradar::CELLS)
        .find(|&i| truth.count[i as usize] == 1)
        .expect("a pure cell");
    let count = ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    net.sim.install_tap(
        link,
        S1,
        ctrl_mitm::inflate_read_response(flowradar::reg_ids::CELL_PKTSUM, cell, 3, count.clone()),
    );

    // The controller's periodic export: every cell of all three registers.
    for &(reg, _) in FLOWRADAR_REGS {
        for i in 0..flowradar::CELLS {
            net.controller_read(S1, reg, i);
        }
    }
    net.sim.run_to_completion();
    assert_eq!(*count.borrow(), 1, "one response tampered");

    let events = net.take_events();
    let mut cells: HashMap<(RegId, u32), u64> = HashMap::new();
    for e in &events {
        if let ControllerEvent::ValueRead {
            reg, index, value, ..
        } = *e
        {
            cells.insert((reg, index), value);
        }
    }
    let column = |reg: RegId| -> Option<Vec<u64>> {
        (0..flowradar::CELLS)
            .map(|i| cells.get(&(reg, i)).copied())
            .collect()
    };
    let export = match (
        column(flowradar::reg_ids::CELL_COUNT),
        column(flowradar::reg_ids::CELL_FLOWXOR),
        column(flowradar::reg_ids::CELL_PKTSUM),
    ) {
        (Some(count), Some(flowxor), Some(pktsum)) => Some(Export {
            count,
            flowxor,
            pktsum,
        }),
        _ => None,
    };
    (export.map(|e| e.decode()), events)
}

fn ground_truth() -> HashMap<u32, u64> {
    FLOWS.into_iter().collect()
}

/// Invariant: the controller never accepts a decoded count that differs
/// from ground truth.
#[test]
fn flowradar_tampered_export_is_rejected_with_p4auth() {
    let (decoded, events) = flowradar_tampered_export(true);
    assert!(
        events.iter().any(|e| matches!(
            e,
            ControllerEvent::Rejected {
                switch: S1,
                reason: RejectReason::BadDigest
            }
        )),
        "the tampered response is rejected: {events:?}"
    );
    // The rejected cell never reaches the controller, and an export with
    // a cell missing is not decoded: no count is accepted, so no wrong
    // count is. Every other read arrived.
    assert_eq!(decoded, None);
    let reads = events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::ValueRead { .. }))
        .count();
    assert_eq!(reads, 3 * flowradar::CELLS as usize - 1);
}

#[test]
fn flowradar_tampered_export_poisons_counts_without_p4auth() {
    let (decoded, events) = flowradar_tampered_export(false);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Rejected { .. })),
        "nothing is checked in the unprotected arm"
    );
    let decoded = decoded.expect("every response accepted");
    assert_ne!(
        decoded,
        ground_truth(),
        "the unprotected arm must be fooled"
    );
}
