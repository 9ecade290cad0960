//! Table I on the systems it names.
//!
//! Each [`Row`] runs one of this crate's seven miniatures on a simulated
//! network, mounts the §II-A attack Table I cites on the system's C-DP
//! messages (HULA's are DP-DP probes), and judges a system-level
//! invariant. Every row runs twice: with P4Auth on, and with controller and
//! agents on the insecure baseline. The unprotected arm must *break* the
//! invariant, or the protected arm holding it proves nothing;
//! [`Verdict::reproduced`] asks for both, and for the controller to have
//! been told. `repro -- table1` prints [`run_all`] and fails on any row
//! that does not reproduce.
//!
//! HULA and RouteScout run the Fig. 17 and Fig. 16 experiments. The other
//! five run on one switch, [`S1`], built by [`one_switch`].

use crate::blink::{self, BlinkApp, BlinkFrame};
use crate::experiments::{fig16, fig17, Scenario};
use crate::flowradar::{self, Export, FlowRadarApp, FrFrame};
use crate::harness::{ControllerNode, Network};
use crate::netcache::{self, NetCacheApp, Query};
use crate::netwarden::{self, ConnPacket, NetWardenApp};
use crate::silkroad::{self, ConnFrame, SilkRoadApp};
use p4auth_attacks::{ctrl_mitm, dos};
use p4auth_controller::{ControllerConfig, ControllerEvent};
use p4auth_core::agent::{AgentConfig, InNetworkApp};
use p4auth_core::auth::RejectReason;
use p4auth_netsim::topology::Topology;
use p4auth_primitives::rng::SplitMix64;
use p4auth_wire::body::AlertKind;
use p4auth_wire::ids::{PortId, RegId, SwitchId};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One Table I row: a system, the attack on it, and the invariant the
/// attack breaks.
#[derive(Debug)]
pub struct Row {
    /// The system, one of this crate's miniatures.
    pub system: &'static str,
    /// Its Table I class.
    pub class: &'static str,
    /// The C-DP (or DP-DP) message the adversary alters, and how.
    pub attack: &'static str,
    /// Table I's impact column.
    pub impact: &'static str,
    /// The system-level property the attack targets.
    pub invariant: &'static str,
    /// Runs one arm: P4Auth on (`true`) or the insecure baseline.
    pub run: fn(auth: bool) -> Arm,
}

/// What one arm of a row observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arm {
    /// Whether the invariant held.
    pub held: bool,
    /// How often the controller learnt of the tampering: digest-mismatch
    /// alerts from the data plane plus responses it rejected for a bad
    /// digest (HULA: Fig. 17's alert count; RouteScout: Fig. 16's count
    /// of epochs with a rejected response).
    pub detections: u64,
    /// The measured quantity the invariant is judged on.
    pub observed: String,
    /// The controller's events from the attack on, which `detections`
    /// counts. Empty for HULA and RouteScout, whose experiments report
    /// counts only.
    pub events: Vec<ControllerEvent>,
}

/// Both arms of one row.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The row.
    pub row: &'static Row,
    /// The arm on the insecure baseline.
    pub unprotected: Arm,
    /// The arm with P4Auth on.
    pub protected: Arm,
}

impl Verdict {
    /// Whether the row reproduces Table I: the attack breaks the invariant
    /// without P4Auth, and with P4Auth the invariant holds and the
    /// controller is told.
    pub fn reproduced(&self) -> bool {
        !self.unprotected.held && self.protected.held && self.protected.detections > 0
    }
}

/// The seven rows, in the order of Table I's classes.
pub const ROWS: [Row; 7] = [
    Row {
        system: "RouteScout",
        class: "FRR",
        attack: "path-1 latency inflated ×5 in read responses",
        impact: "poisoning of the rerouting decision",
        invariant: "split ratio stays within 2 pp of the clean run's",
        run: routescout,
    },
    Row {
        system: "Blink",
        class: "FRR",
        attack: "backup next-hop update rewritten to port 4",
        impact: "poisoning of fast rerouting decision",
        invariant: "fails over only onto a next hop the operator installed",
        run: blink,
    },
    Row {
        system: "HULA",
        class: "LB",
        attack: "probeUtil rewritten to 5 % on the S4→S1 link",
        impact: "traffic attracted onto the adversary's link",
        invariant: "never steers traffic onto the path whose probes were forged",
        run: hula,
    },
    Row {
        system: "SilkRoad",
        class: "LB",
        attack: "forged clear of the transit bloom filter",
        impact: "manipulating the data plane to use the wrong VIP",
        invariant: "never remaps an established connection",
        run: silkroad,
    },
    Row {
        system: "NetWarden",
        class: "IDS/IPS",
        attack: "suspicion-flag update rewritten to a clear",
        impact: "evasion of malicious traffic detection",
        invariant: "keeps pacing every packet of a flagged connection",
        run: netwarden,
    },
    Row {
        system: "NetCache",
        class: "cache",
        attack: "forged write evicting the hot key",
        impact: "inflates time to retrieve the hot key value",
        invariant: "serves an installed hot key from the cache",
        run: netcache,
    },
    Row {
        system: "FlowRadar",
        class: "measurement",
        attack: "one packet-count cell inflated ×3 in the export",
        impact: "manipulates monitoring decisions, poisons loss analysis",
        invariant: "never accepts a decoded flow count that differs from ground truth",
        run: flowradar,
    },
];

/// Runs both arms of every row, in [`ROWS`] order.
pub fn run_all() -> Vec<Verdict> {
    ROWS.iter()
        .map(|row| Verdict {
            row,
            unprotected: (row.run)(false),
            protected: (row.run)(true),
        })
        .collect()
}

/// The switch the single-switch rows run on.
pub const S1: SwitchId = SwitchId::new(1);

/// S1's port on its C-DP link to the controller.
const CDP_PORT: PortId = PortId::new(63);

/// S1 alone on a [`Topology::chain`], running `app` with `registers` mapped
/// for the controller and `ports` data ports. With `auth` the keys are
/// bootstrapped; without it, controller and agent run the insecure
/// baseline.
pub fn one_switch(
    auth: bool,
    seed: u64,
    app: fn() -> Box<dyn InNetworkApp>,
    registers: &[(RegId, &'static str)],
    ports: u8,
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
        |_, config: AgentConfig| {
            let mut config = registers
                .iter()
                .fold(config, |c, &(id, name)| c.map_register(id, name));
            config.num_ports = ports;
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

/// Counts the events that report tampering: digest-mismatch alerts and
/// bad-digest rejections.
fn detections(events: &[ControllerEvent]) -> u64 {
    let tampering = |e: &&ControllerEvent| {
        matches!(
            e,
            ControllerEvent::AlertReceived {
                kind: AlertKind::DigestMismatch,
                ..
            } | ControllerEvent::Rejected {
                reason: RejectReason::BadDigest,
                ..
            }
        )
    };
    events.iter().filter(tampering).count() as u64
}

/// The controller writes `value` to `reg[index]` on S1 while the
/// compromised switch OS rewrites the request to `forged` in flight.
fn rewritten_write(net: &mut Network, reg: RegId, index: u32, value: u64, forged: u64) {
    let count = ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, CDP_PORT).expect("C-DP link");
    let tap = ctrl_mitm::rewrite_write_request(reg, index, forged, count.clone());
    net.sim.install_tap(link, SwitchId::CONTROLLER, tap);
    net.controller_write(S1, reg, index, value);
    net.sim.run_to_completion();
    assert_eq!(*count.borrow(), 1, "one request rewritten");
}

/// Injects a write to cell 0 of `reg` on S1's C-DP link, with a random
/// value drawn from `seed`. The adversary cannot compute a digest, so it
/// guesses one.
fn forged_write(net: &mut Network, reg: RegId, seed: u64) {
    let port = ControllerNode::port_for(S1);
    for frame in dos::forged_write_requests(1, reg, &mut SplitMix64::new(seed)) {
        net.sim.inject_frame(SwitchId::CONTROLLER, port, frame);
    }
    net.sim.run_to_completion();
}

/// The Fig. 16 / Fig. 17 arm under attack.
fn attacked(auth: bool) -> Scenario {
    if auth {
        Scenario::AdversaryWithP4Auth
    } else {
        Scenario::Adversary
    }
}

/// HULA on the Fig. 3 topology (the Fig. 17 experiment): S4's path is the
/// one whose probes the link adversary forges.
pub fn hula(auth: bool) -> Arm {
    let r = fig17::run(attacked(auth), fig17::Fig17Config::default());
    Arm {
        held: r.path_share[2] == 0.0,
        detections: r.alerts,
        observed: format!("{:.1} % of traffic via S4", 100.0 * r.path_share[2]),
        events: Vec::new(),
    }
}

/// The largest split-ratio drift, in percentage points, RouteScout may
/// show against the clean run.
const SPLIT_EPSILON: u64 = 2;

/// RouteScout (the Fig. 16 experiment); ground truth is the split the
/// controller reaches with no adversary, computed once per process.
pub fn routescout(auth: bool) -> Arm {
    static TRUTH: OnceLock<u64> = OnceLock::new();
    let config = fig16::Fig16Config::default();
    let truth = *TRUTH.get_or_init(|| fig16::run(Scenario::NoAdversary, config).final_split);
    let r = fig16::run(attacked(auth), config);
    Arm {
        held: r.final_split.abs_diff(truth) <= SPLIT_EPSILON,
        detections: r.tamper_detections,
        observed: format!("split {} % to path 1 (clean run: {truth} %)", r.final_split),
        events: Vec::new(),
    }
}

/// The port the Blink adversary writes as the backup next hop.
const ATTACKER_PORT: u8 = 4;

/// The backup next hops the operator installs for prefix 0: port 2 at
/// boot, port 3 by the update the adversary rewrites.
const INSTALLED_BACKUPS: [u8; 2] = [2, 3];

/// Blink: the operator re-provisions prefix 0's backup next hop (the
/// default is port 2, the update says 3), the adversary rewrites the
/// update, and an outage then fires fast reroute.
pub fn blink(auth: bool) -> Arm {
    // Blink forwards onto next-hop ports 1..4, which have no links on a
    // chain of one; size the chassis for them.
    let mut net = one_switch(
        auth,
        0xb11c,
        BlinkApp::boxed,
        &blink::reg_ids::ALL,
        ATTACKER_PORT,
    );
    rewritten_write(
        &mut net,
        blink::reg_ids::BACKUP,
        0,
        3,
        u64::from(ATTACKER_PORT),
    );

    // Retransmissions past the threshold, then the packet fast reroute
    // forwards.
    let now = net.sim.now().as_ns();
    let mut agent = net.switches[&S1].borrow_mut();
    let mut port = PortId::new(0);
    for i in 0..=blink::RETRANS_THRESHOLD {
        let frame = BlinkFrame {
            prefix: 0,
            retransmission: i < blink::RETRANS_THRESHOLD,
        };
        port = agent
            .on_packet(now, PortId::new(9), &frame.encode())
            .outputs[0]
            .0;
    }
    drop(agent);
    let events = net.take_events();
    Arm {
        held: INSTALLED_BACKUPS.contains(&port.value()),
        detections: detections(&events),
        observed: format!("fails over to port {}", port.value()),
        events,
    }
}

/// A connection whose transit-filter bit is cell 0, the cell
/// [`dos::forged_write_requests`] writes.
const PENDING_CONN: u32 = 128;

/// SilkRoad: a connection opens on pool 1, the operator moves the pool to
/// version 2 while the connection's table entry is still being installed,
/// and the adversary forges the controller's transit-table clear.
pub fn silkroad(auth: bool) -> Arm {
    let mut net = one_switch(
        auth,
        0x51_1c,
        SilkRoadApp::boxed,
        &silkroad::reg_ids::ALL,
        1,
    );
    let packet = |first| {
        ConnFrame {
            conn: PENDING_CONN,
            first,
        }
        .encode()
    };

    net.deliver(S1, [packet(true)]);
    let transit = |net: &Network| net.read_register(S1, silkroad::regs::TRANSIT, 0);
    assert_eq!(transit(&net), 1, "the SYN marks the connection pending");
    // Only the transit filter holds the connection's pool until its entry
    // lands (driver-side, as the entry would be).
    net.switches[&S1]
        .borrow_mut()
        .chassis_mut()
        .register_mut(silkroad::regs::CONN_DIP)
        .expect("declared register")
        .write(PENDING_CONN % silkroad::CONN_SLOTS, 0)
        .expect("index in range");
    net.controller_write(S1, silkroad::reg_ids::POOL_VERSION, 0, 2);
    net.sim.run_to_completion();
    let _ = net.take_events();

    // Seed 2's forged value clears cell 0's bit.
    forged_write(&mut net, silkroad::reg_ids::TRANSIT, 2);
    let bit = transit(&net);

    // The connection's next packet.
    net.deliver(S1, [packet(false)]);
    let remapped = net.read_register(S1, silkroad::regs::BROKEN_AFFINITY, 0);
    let events = net.take_events();
    Arm {
        held: remapped == 0,
        detections: detections(&events),
        observed: format!(
            "transit bit {bit} after the forged clear, {remapped} pending connection(s) remapped"
        ),
        events,
    }
}

/// The connection NetWarden has flagged as a covert channel.
const COVERT_CONN: u32 = 5;

/// NetWarden: the controller has flagged a covert channel and re-asserts
/// the flag; the adversary rewrites that update into a clear, and the
/// channel keeps sending.
pub fn netwarden(auth: bool) -> Arm {
    let mut net = one_switch(
        auth,
        0x1d5,
        NetWardenApp::boxed,
        &netwarden::reg_ids::ALL,
        1,
    );
    let suspect = netwarden::reg_ids::SUSPECT;
    net.controller_write(S1, suspect, COVERT_CONN, 1);
    net.sim.run_to_completion();
    let _ = net.take_events();
    rewritten_write(&mut net, suspect, COVERT_CONN, 1, 0);

    let sent = [200, 210, 220];
    net.deliver(
        S1,
        sent.map(|ts_us| {
            ConnPacket {
                conn: COVERT_CONN,
                ts_us,
            }
            .encode()
        }),
    );
    let paced = net.read_register(S1, netwarden::regs::PACED, 0);
    let events = net.take_events();
    Arm {
        held: paced == sent.len() as u64,
        detections: detections(&events),
        observed: format!("{paced} of {} covert packets paced", sent.len()),
        events,
    }
}

/// A hot key in cache slot 0, the cell [`dos::forged_write_requests`]
/// writes.
const HOT_KEY: u32 = 16;

/// How often NetCache's clients query the hot key after the attack.
const HOT_QUERIES: u64 = 5;

/// NetCache: the controller installs a hot key, the adversary forges its
/// eviction, and clients query the key.
pub fn netcache(auth: bool) -> Arm {
    let mut net = one_switch(auth, 0xca1e, NetCacheApp::boxed, &netcache::reg_ids::ALL, 1);
    let query = Query { key: HOT_KEY };
    net.controller_write(
        S1,
        netcache::reg_ids::CACHED_KEY,
        query.slot(),
        HOT_KEY.into(),
    );
    net.controller_write(S1, netcache::reg_ids::CACHED_VALUE, query.slot(), 0xfeed);
    net.sim.run_to_completion();
    let _ = net.take_events();

    forged_write(&mut net, netcache::reg_ids::CACHED_KEY, 13);

    let cached = net.read_register(S1, netcache::regs::CACHED_KEY, query.slot());

    net.deliver(S1, (0..HOT_QUERIES).map(|_| query.encode()));
    let hits = net.read_register(S1, netcache::regs::HITS, 0);
    let events = net.take_events();
    let survived = cached == u64::from(HOT_KEY);
    Arm {
        held: survived && hits == HOT_QUERIES,
        detections: detections(&events),
        observed: format!(
            "hot key {}, {hits} of {HOT_QUERIES} queries hit",
            if survived { "cached" } else { "evicted" }
        ),
        events,
    }
}

/// Flow id → packets sent: what the FlowRadar switch really saw.
const FLOWS: [(u32, u64); 3] = [(101, 7), (202, 3), (303, 12)];

/// FlowRadar: the switch counts three flows, and the controller's export
/// reads every cell of the three IBLT registers over C-DP while the
/// adversary inflates the packet count of the cell the decoder peels
/// first. A controller that is missing a cell decodes nothing.
pub fn flowradar(auth: bool) -> Arm {
    let regs = flowradar::reg_ids::ALL;
    let mut net = one_switch(auth, 0xf10a, FlowRadarApp::boxed, &regs, 1);
    let frames = FLOWS
        .iter()
        .flat_map(|&(flow, n)| (0..n).map(move |_| FrFrame { flow }.encode()));
    net.deliver(S1, frames);

    let truth = Export::read_from(net.switches[&S1].borrow().chassis());
    let cell = (0..flowradar::CELLS)
        .find(|&i| truth.count[i as usize] == 1)
        .expect("a pure cell");
    let tampered = ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, CDP_PORT).expect("C-DP link");
    let tap = ctrl_mitm::inflate_read_response(
        flowradar::reg_ids::CELL_PKTSUM,
        cell,
        3,
        tampered.clone(),
    );
    net.sim.install_tap(link, S1, tap);
    for (reg, _) in regs {
        for i in 0..flowradar::CELLS {
            net.controller_read(S1, reg, i);
        }
    }
    net.sim.run_to_completion();
    assert_eq!(*tampered.borrow(), 1, "one response tampered");

    let events = net.take_events();
    let cells: HashMap<(RegId, u32), u64> = events
        .iter()
        .filter_map(|e| match *e {
            ControllerEvent::ValueRead {
                reg, index, value, ..
            } => Some(((reg, index), value)),
            _ => None,
        })
        .collect();
    let column = |reg: RegId| -> Option<Vec<u64>> {
        (0..flowradar::CELLS)
            .map(|i| cells.get(&(reg, i)).copied())
            .collect()
    };
    let export = || {
        Some(Export {
            count: column(flowradar::reg_ids::CELL_COUNT)?,
            flowxor: column(flowradar::reg_ids::CELL_FLOWXOR)?,
            pktsum: column(flowradar::reg_ids::CELL_PKTSUM)?,
        })
    };
    let decoded = export().map(|e| e.decode()).unwrap_or_default();
    let wrong = FLOWS
        .iter()
        .filter(|&&(flow, n)| decoded.get(&flow).is_some_and(|&d| d != n))
        .count();
    let missing = regs.len() * flowradar::CELLS as usize - cells.len();
    Arm {
        held: wrong == 0,
        detections: detections(&events),
        observed: format!(
            "{wrong} of {} flow counts wrong, {missing} cell read(s) rejected",
            FLOWS.len()
        ),
        events,
    }
}
