//! Flow-completion-time impact of the HULA attack — the §II motivation
//! ("altering the content in control messages can trick the
//! packet-processing algorithm, leading to degradation of network
//! performance (e.g., inflates flow completion time)") quantified on the
//! simulator's bandwidth/queueing model.
//!
//! Setup: the Fig. 3 topology with *finite capacity* on the mid→S5 links.
//! A host attached to S1 replays a synthetic CAIDA-like flow trace toward
//! S5. When the on-link MitM drags all traffic onto the S4 path, that
//! link's transmitter queue builds and flows finish late; with P4Auth the
//! forged probes are dropped and completion times return to the clean
//! baseline.

use super::Scenario;
use crate::experiments::fig17::fig3_topology;
use crate::harness::{Network, HOST_ID_BASE};
use crate::hula::{self, DataFrame, HulaApp, HulaConfig, Probe, HULA_SYSTEM_ID};
use p4auth_attacks::link_mitm;
use p4auth_controller::ControllerConfig;
use p4auth_netsim::topology::Endpoint;
use p4auth_wire::ids::{PortId, SwitchId};
use p4auth_workloads::flows::{FlowGen, FlowGenConfig};
use p4auth_workloads::trace;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

const S1: SwitchId = SwitchId::new(1);
const S5: SwitchId = SwitchId::new(5);
const SRC_HOST: SwitchId = SwitchId::new(HOST_ID_BASE);
const DST_HOST: SwitchId = SwitchId::new(HOST_ID_BASE + 1);
const MIDS: [SwitchId; 3] = [SwitchId::new(2), SwitchId::new(3), SwitchId::new(4)];
/// The destination "prefix" the flows target: it lives behind S5's host
/// port, so S5 forwards (rather than consumes) the data.
const DST_PREFIX: u16 = 6;
/// S5's port toward the destination host.
const DST_PORT: PortId = PortId::new(4);

/// Configuration of an FCT run.
#[derive(Clone, Copy, Debug)]
pub struct FctConfig {
    /// Flows to replay.
    pub flows: usize,
    /// Mid→S5 link capacity in bits/s (the bottleneck).
    pub bottleneck_bps: u64,
    /// Probe round period (ns).
    pub probe_period_ns: u64,
    /// Probe rounds to run (bounds the experiment).
    pub rounds: u32,
    /// Workload seed.
    pub seed: u64,
}

impl Default for FctConfig {
    fn default() -> Self {
        FctConfig {
            flows: 120,
            // ~7-byte frames at high rate: size the bottleneck so one path
            // saturates but three paths together do not.
            bottleneck_bps: 1_200_000,
            probe_period_ns: 2_000_000,
            rounds: 40,
            seed: 0xfc7_5eed,
        }
    }
}

/// Result of one FCT run.
#[derive(Clone, Debug)]
pub struct FctResult {
    /// Which arm ran.
    pub scenario: Scenario,
    /// Mean flow completion time (ns).
    pub mean_fct_ns: f64,
    /// 95th-percentile flow completion time (ns).
    pub p95_fct_ns: u64,
    /// Flows that completed (all packets observed at S5's side).
    pub completed: usize,
    /// Total flows replayed.
    pub total: usize,
    /// Traffic share per path at S1 (via S2, S3, S4).
    pub path_share: [f64; 3],
}

/// Runs one arm.
pub fn run(scenario: Scenario, config: FctConfig) -> FctResult {
    // Topology: Fig. 3 plus a source host off S1 (port 9) and a
    // destination host off S5 (port 4, behind the bottlenecks).
    let mut topo = fig3_topology(50_000, 200_000);
    topo.add_node(SRC_HOST).unwrap();
    topo.add_link(
        Endpoint::new(SRC_HOST, PortId::new(1)),
        Endpoint::new(S1, PortId::new(9)),
        10_000,
    )
    .unwrap();
    topo.add_node(DST_HOST).unwrap();
    topo.add_link(
        Endpoint::new(DST_HOST, PortId::new(1)),
        Endpoint::new(S5, DST_PORT),
        10_000,
    )
    .unwrap();
    // Finite capacity on the mid→S5 legs (the bottleneck the attack
    // congests).
    for &mid in &MIDS {
        let (link, _) = topo.link_at(mid, PortId::new(2)).expect("mid-S5 link");
        topo.set_bandwidth(link, config.bottleneck_bps);
    }

    let controller_config = ControllerConfig {
        auth_enabled: scenario.auth_enabled(),
        ..ControllerConfig::default()
    };
    let mut net = Network::build(
        topo,
        1,
        controller_config,
        config.seed,
        |id| {
            let ports = if id == S1 || id == S5 { 3 } else { 2 };
            Some(HulaApp::boxed(HulaConfig::new(8, ports)))
        },
        move |_, agent_config| {
            if scenario.auth_enabled() {
                agent_config
            } else {
                agent_config.insecure_baseline()
            }
        },
    );
    if scenario.auth_enabled() {
        net.bootstrap_keys();
        let _ = net.take_events();
    }
    if scenario.adversary() {
        let (link, _) = net
            .sim
            .topology()
            .link_at(SwitchId::new(4), PortId::new(1))
            .expect("S4-S1 link");
        net.sim.install_tap(
            link,
            SwitchId::new(4),
            link_mitm::rewrite_probe_field(HULA_SYSTEM_ID, 6, 5, link_mitm::tamper_counter()),
        );
    }
    // Mids never route backward toward S1.
    for &mid in &MIDS {
        net.switches[&mid]
            .borrow_mut()
            .chassis_mut()
            .register_mut(hula::regs::LOCAL_UTIL)
            .unwrap()
            .write(1, 99)
            .unwrap();
    }

    // S5 routes the destination prefix out of its host port; the entry is
    // refreshed each probe round so HULA's aging never replaces it.
    {
        let s5 = net.switches[&S5].borrow_mut();
        let mut agent = s5;
        let chassis = agent.chassis_mut();
        chassis
            .register_mut(hula::regs::BEST_HOP)
            .unwrap()
            .write(DST_PREFIX as u32, DST_PORT.value() as u64)
            .unwrap();
        chassis
            .register_mut(hula::regs::BEST_UTIL)
            .unwrap()
            .write(DST_PREFIX as u32, 0)
            .unwrap();
    }

    // Completion observation: the destination host records per-flow last
    // arrival time and packet count *after* the bottleneck queues.
    let arrivals: Rc<RefCell<HashMap<u32, (u64, u32)>>> = Rc::new(RefCell::new(HashMap::new()));
    {
        let arrivals = arrivals.clone();
        net.attach_sink(
            DST_HOST,
            Box::new(move |now, _ingress, payload: &[u8]| {
                if let Some(frame) = DataFrame::decode(payload) {
                    let mut a = arrivals.borrow_mut();
                    let entry = a.entry(frame.flow).or_insert((0, 0));
                    entry.0 = now.as_ns();
                    entry.1 += 1;
                }
            }),
        );
    }

    // Workload: flows of packets toward the destination prefix, replayed
    // by the source host.
    let flows = FlowGen::new(FlowGenConfig {
        mean_interarrival_ns: 400_000.0,
        dst: DST_PREFIX,
        seed: config.seed,
        ..FlowGenConfig::default()
    })
    .take_flows(config.flows);
    let packets = trace::expand(&flows, 20_000);
    // Start the replay one probe period in, so first-round probes have
    // installed routes before the first packets need them.
    let base_ns = net.sim.now().as_ns() + config.probe_period_ns;
    let schedule: Vec<(u64, PortId, Vec<u8>)> = packets
        .iter()
        .map(|p| {
            (
                base_ns + p.ts_ns,
                PortId::new(1),
                DataFrame {
                    dst: p.dst,
                    flow: p.flow,
                }
                .encode(),
            )
        })
        .collect();
    net.attach_traffic_source(SRC_HOST, schedule);

    // Drive probe rounds concurrently with the replay.
    let mut last_share: [f64; 3] = [1.0 / 3.0; 3];
    let mut prev_tx = [0u64; 3];
    for round in 1..=config.rounds {
        for (i, &mid) in MIDS.iter().enumerate() {
            let util = (10.0 + 80.0 * last_share[i]).clamp(0.0, 100.0) as u64;
            net.switches[&mid]
                .borrow_mut()
                .chassis_mut()
                .register_mut(hula::regs::LOCAL_UTIL)
                .unwrap()
                .write(2, util)
                .unwrap();
        }
        // Keep S5's own route to the prefix fresh against aging.
        net.switches[&S5]
            .borrow_mut()
            .chassis_mut()
            .register_mut(hula::regs::BEST_ROUND)
            .unwrap()
            .write(DST_PREFIX as u32, round as u64)
            .unwrap();
        for k in 0..3u8 {
            let port = 1 + (round as u8 + k) % 3;
            let probe = Probe {
                dst: DST_PREFIX,
                round,
                util: 0,
            };
            net.originate_probe(S5, PortId::new(port), HULA_SYSTEM_ID, probe.encode());
        }
        let deadline = net.sim.now() + config.probe_period_ns;
        net.sim.run_until(deadline);

        let agent = net.switches[&S1].borrow();
        let tx_reg = agent.chassis().register(hula::regs::TX_COUNT).unwrap();
        let mut round_tx = [0u64; 3];
        for (i, rt) in round_tx.iter_mut().enumerate() {
            let total = tx_reg.read(i as u32 + 1).unwrap();
            *rt = total - prev_tx[i];
            prev_tx[i] = total;
        }
        drop(agent);
        let round_total: u64 = round_tx.iter().sum();
        if round_total > 0 {
            for i in 0..3 {
                last_share[i] = round_tx[i] as f64 / round_total as f64;
            }
        }
    }
    net.sim.run_to_completion();

    // FCTs: last observed packet time minus flow arrival, for flows whose
    // packets were all observed.
    let arrivals = arrivals.borrow();
    let mut fcts: Vec<u64> = Vec::new();
    for f in &flows {
        if let Some(&(last_ns, count)) = arrivals.get(&f.id) {
            if count >= f.packets {
                fcts.push(last_ns - (base_ns + f.arrival_ns));
            }
        }
    }
    let tx: Vec<u64> = {
        let agent = net.switches[&S1].borrow();
        let tx_reg = agent.chassis().register(hula::regs::TX_COUNT).unwrap();
        (1..=3).map(|p| tx_reg.read(p).unwrap()).collect()
    };
    let tx_total = tx.iter().sum::<u64>().max(1) as f64;
    let path_share = [
        tx[0] as f64 / tx_total,
        tx[1] as f64 / tx_total,
        tx[2] as f64 / tx_total,
    ];

    fcts.sort_unstable();
    let completed = fcts.len();
    let mean = if completed == 0 {
        0.0
    } else {
        fcts.iter().sum::<u64>() as f64 / completed as f64
    };
    let p95 = fcts
        .get(completed.saturating_sub(1).min(completed * 95 / 100))
        .copied()
        .unwrap_or(0);

    FctResult {
        scenario,
        mean_fct_ns: mean,
        p95_fct_ns: p95,
        completed,
        total: flows.len(),
        path_share,
    }
}

/// Runs all three arms.
pub fn run_all(config: FctConfig) -> Vec<FctResult> {
    Scenario::ALL.into_iter().map(|s| run(s, config)).collect()
}
