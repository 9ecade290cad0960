//! Fig. 17: protecting HULA from an on-link MitM (the Fig. 3 scenario).
//!
//! Topology: S1 reaches S5 over three two-hop paths (via S2, S3 and S4).
//! S5 floods utilization probes every round; S1 forwards data to the
//! least-utilized path. The adversary on the S4–S1 link rewrites
//! `probeUtil` to 10 %, making the S4 path look idle:
//!
//! * no adversary → utilization feedback balances traffic roughly equally;
//! * adversary, no P4Auth → S1 sends the bulk of traffic via S4;
//! * adversary + P4Auth → tampered probes fail digest verification at S1,
//!   the S4 path goes stale, and traffic avoids the compromised link
//!   entirely while alerts flow to the controller.

use super::Scenario;
use crate::harness::Network;
use crate::hula::{self, DataFrame, HulaApp, HulaConfig, Probe, HULA_SYSTEM_ID};
use p4auth_attacks::link_mitm;
use p4auth_controller::ControllerConfig;
use p4auth_netsim::topology::{Endpoint, Topology};
use p4auth_wire::ids::{PortId, SwitchId};

const S1: SwitchId = SwitchId::new(1);
const S5: SwitchId = SwitchId::new(5);
/// The middle switches, in port order as seen from S1 (port 1 → S2, …).
const MIDS: [SwitchId; 3] = [SwitchId::new(2), SwitchId::new(3), SwitchId::new(4)];

/// Builds the Fig. 3 topology: S1 —{S2,S3,S4}— S5, all switches with a
/// C-DP link on port 63.
pub fn fig3_topology(dp_latency_ns: u64, cp_latency_ns: u64) -> Topology {
    let mut t = Topology::new();
    t.add_node(SwitchId::CONTROLLER).unwrap();
    for i in 1..=5 {
        t.add_node(SwitchId::new(i)).unwrap();
    }
    for (i, &mid) in MIDS.iter().enumerate() {
        let port = PortId::new(i as u8 + 1);
        // S1:p(i+1) <-> mid:p1
        t.add_link(
            Endpoint::new(S1, port),
            Endpoint::new(mid, PortId::new(1)),
            dp_latency_ns,
        )
        .unwrap();
        // mid:p2 <-> S5:p(i+1)
        t.add_link(
            Endpoint::new(mid, PortId::new(2)),
            Endpoint::new(S5, port),
            dp_latency_ns,
        )
        .unwrap();
    }
    for i in 1..=5u16 {
        t.add_link(
            Endpoint::new(SwitchId::new(i), PortId::new(63)),
            Endpoint::new(SwitchId::CONTROLLER, PortId::new((i - 1) as u8)),
            cp_latency_ns,
        )
        .unwrap();
    }
    t
}

/// Result of one Fig. 17 run.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig17Result {
    /// Which arm ran.
    pub scenario: Scenario,
    /// Traffic share per path (via S2, via S3, via S4).
    pub path_share: [f64; 3],
    /// Probes S1 dropped for failed verification.
    pub probes_dropped: u64,
    /// Alerts the controller received.
    pub alerts: u64,
    /// Packets delivered at S5.
    pub delivered: u64,
    /// Total data packets injected.
    pub injected: u64,
}

/// Configuration of a Fig. 17 run.
#[derive(Clone, Copy, Debug)]
pub struct Fig17Config {
    /// Probe rounds.
    pub rounds: u32,
    /// Data packets injected at S1 per round.
    pub packets_per_round: u32,
    /// Baseline path utilization percent (all paths equal).
    pub base_util: u8,
    /// How strongly last round's traffic share raises a path's utilization.
    pub congestion_gain: f64,
    /// The utilization value the adversary writes into probes.
    pub forged_util: u8,
    /// Key-material / RNG seed for the run.
    pub seed: u64,
}

impl Default for Fig17Config {
    fn default() -> Self {
        Fig17Config {
            rounds: 30,
            packets_per_round: 60,
            base_util: 10,
            congestion_gain: 80.0,
            // Below the idle baseline: the advertised value is always a
            // lie, so with P4Auth every tampered probe is detectably
            // modified (as in the paper, where the real S4 utilization is
            // persistently high).
            forged_util: 5,
            seed: 0x5eed_0017,
        }
    }
}

fn build(scenario: Scenario, seed: u64) -> Network {
    let topo = fig3_topology(50_000, 200_000);
    let controller_config = ControllerConfig {
        auth_enabled: scenario.auth_enabled(),
        ..ControllerConfig::default()
    };
    Network::build(
        topo,
        1,
        controller_config,
        seed,
        |id| {
            let ports = if id == S1 || id == S5 { 3 } else { 2 };
            Some(HulaApp::boxed(HulaConfig::new(8, ports)))
        },
        move |_, config| {
            if scenario.auth_enabled() {
                config
            } else {
                config.insecure_baseline()
            }
        },
    )
}

/// Runs one arm of Fig. 17.
pub fn run(scenario: Scenario, config: Fig17Config) -> Fig17Result {
    let mut net = build(scenario, config.seed);
    if scenario.auth_enabled() {
        net.bootstrap_keys();
        let _ = net.take_events();
    }

    // The MitM sits on the S4→S1 direction of the S4–S1 link.
    if scenario.adversary() {
        let (link, _) = net
            .sim
            .topology()
            .link_at(SwitchId::new(4), PortId::new(1))
            .expect("S4-S1 link");
        net.sim.install_tap(
            link,
            SwitchId::new(4),
            link_mitm::rewrite_probe_field(
                HULA_SYSTEM_ID,
                6,
                config.forged_util,
                link_mitm::tamper_counter(),
            ),
        );
    }

    // Mids never route data backwards toward S1: the reverse link is
    // marked fully utilized.
    for &mid in &MIDS {
        net.switches[&mid]
            .borrow_mut()
            .chassis_mut()
            .register_mut(hula::regs::LOCAL_UTIL)
            .unwrap()
            .write(1, 99)
            .unwrap();
    }

    let mut last_share = [1.0 / 3.0; 3];
    let mut prev_tx = [0u64; 3];
    let mut flow: u32 = 0;

    for round in 1..=config.rounds {
        // Path utilization this round: base + congestion from last round's
        // traffic share, applied at each mid's S5-facing port (the port the
        // probe ingresses from S5).
        for (i, &mid) in MIDS.iter().enumerate() {
            let util = (config.base_util as f64 + config.congestion_gain * last_share[i])
                .clamp(0.0, 100.0) as u64;
            net.switches[&mid]
                .borrow_mut()
                .chassis_mut()
                .register_mut(hula::regs::LOCAL_UTIL)
                .unwrap()
                .write(2, util)
                .unwrap();
        }

        // S5 floods this round's probes out each of its three ports. The
        // injection order rotates per round — on real hardware probe
        // arrival order is effectively arbitrary, and a fixed order would
        // systematically favour the port whose probe lands last.
        for k in 0..3u8 {
            let port = 1 + (round as u8 + k) % 3;
            let probe = Probe {
                dst: S5.value(),
                round,
                util: 0,
            };
            net.originate_probe(S5, PortId::new(port), HULA_SYSTEM_ID, probe.encode());
        }
        net.sim.run_to_completion();

        // S1 sends this round's data toward S5.
        let frames = (0..config.packets_per_round).map(|_| {
            flow = flow.wrapping_add(1);
            DataFrame {
                dst: S5.value(),
                flow,
            }
            .encode()
        });
        net.deliver(S1, frames);

        // Measure this round's share from S1's per-port tx counters.
        let mut round_tx = [0u64; 3];
        for (i, rt) in round_tx.iter_mut().enumerate() {
            let total = net.read_register(S1, hula::regs::TX_COUNT, i as u32 + 1);
            *rt = total - prev_tx[i];
            prev_tx[i] = total;
        }
        let round_total: u64 = round_tx.iter().sum();
        if round_total > 0 {
            for i in 0..3 {
                last_share[i] = round_tx[i] as f64 / round_total as f64;
            }
        }
    }

    let tx: Vec<u64> = (1..=3)
        .map(|p| net.read_register(S1, hula::regs::TX_COUNT, p))
        .collect();
    let probes_dropped = net.switches[&S1].borrow().stats().probes_dropped;
    let delivered = net.read_register(S5, hula::regs::DELIVERED, S5.value() as u32);
    let total: u64 = tx.iter().sum::<u64>().max(1);
    let alerts = net.set.borrow().alerts().len() as u64;

    Fig17Result {
        scenario,
        path_share: [
            tx[0] as f64 / total as f64,
            tx[1] as f64 / total as f64,
            tx[2] as f64 / total as f64,
        ],
        probes_dropped,
        alerts,
        delivered,
        injected: config.rounds as u64 * config.packets_per_round as u64,
    }
}

/// Runs all three arms.
pub fn run_all(config: Fig17Config) -> Vec<Fig17Result> {
    Scenario::ALL.into_iter().map(|s| run(s, config)).collect()
}
