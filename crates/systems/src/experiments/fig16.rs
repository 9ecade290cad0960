//! Fig. 16: protecting RouteScout from a control-plane adversary.
//!
//! A single RouteScout switch splits traffic across two upstream paths.
//! The controller pulls per-path latency each epoch and installs a new
//! split ratio. The §II-A adversary (compromised switch OS) inflates the
//! latency of path 1 inside read responses, tricking the controller into
//! diverting traffic to the genuinely slower path 2. With P4Auth the
//! tampered responses fail verification and the controller retains the
//! pre-attack ratio, raising alerts.

use super::Scenario;
use crate::harness::Network;
use crate::routescout::{self, RouteScoutApp, RouteScoutController, RsFrame};
use p4auth_attacks::ctrl_mitm;
use p4auth_controller::ControllerConfig;
use p4auth_netsim::topology::{Endpoint, Topology};
use p4auth_wire::ids::{PortId, SwitchId};
use p4auth_workloads::latency::{PathLatency, PathLatencyConfig};

/// Result of one Fig. 16 run.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig16Result {
    /// Which arm ran.
    pub scenario: Scenario,
    /// Fraction of traffic on each path over the whole run.
    pub path_share: [f64; 2],
    /// Fraction of traffic on each path after the attack epoch (the
    /// figure's steady-state comparison).
    pub post_attack_share: [f64; 2],
    /// Final split ratio at the controller (percent to path 0).
    pub final_split: u64,
    /// Epochs in which tampering was detected.
    pub tamper_detections: u64,
    /// Total packets forwarded.
    pub packets: u64,
}

/// Configuration of a Fig. 16 run.
#[derive(Clone, Copy, Debug)]
pub struct Fig16Config {
    /// Controller epochs to run.
    pub epochs: u32,
    /// Data packets per epoch.
    pub packets_per_epoch: u32,
    /// Epoch index at which the adversary activates (paper-style: the
    /// system reaches its legitimate operating point first).
    pub attack_from_epoch: u32,
    /// Latency inflation factor applied by the adversary.
    pub inflation_factor: u64,
    /// Mean latency of path 0 (µs) — the genuinely better path.
    pub path0_mean_us: f64,
    /// Mean latency of path 1 (µs).
    pub path1_mean_us: f64,
    /// Workload / RNG seed.
    pub seed: u64,
}

impl Default for Fig16Config {
    fn default() -> Self {
        Fig16Config {
            epochs: 12,
            packets_per_epoch: 400,
            attack_from_epoch: 3,
            inflation_factor: 5,
            path0_mean_us: 200.0,
            path1_mean_us: 350.0,
            seed: 0xf16_5eed,
        }
    }
}

/// Builds the single-switch RouteScout network.
fn build(scenario: Scenario, seed: u64) -> Network {
    let mut topo = Topology::new();
    topo.add_node(SwitchId::CONTROLLER).unwrap();
    topo.add_node(SwitchId::new(1)).unwrap();
    // Two upstream "paths" are local ports 1 and 2; only the C-DP link is
    // simulated as a real link.
    topo.add_link(
        Endpoint::new(SwitchId::new(1), PortId::new(63)),
        Endpoint::new(SwitchId::CONTROLLER, PortId::new(0)),
        200_000,
    )
    .unwrap();

    let controller_config = ControllerConfig {
        auth_enabled: scenario.auth_enabled(),
        ..ControllerConfig::default()
    };
    Network::build(
        topo,
        1,
        controller_config,
        seed,
        |_| Some(RouteScoutApp::boxed()),
        move |_, config| {
            let config = routescout::map_registers(config);
            if scenario.auth_enabled() {
                config
            } else {
                config.insecure_baseline()
            }
        },
    )
}

/// Runs one arm of Fig. 16.
pub fn run(scenario: Scenario, config: Fig16Config) -> Fig16Result {
    let mut net = build(scenario, config.seed);
    if scenario.auth_enabled() {
        net.bootstrap_keys();
        let _ = net.take_events();
    }

    let sw = SwitchId::new(1);
    let mut rs_controller = RouteScoutController::new(sw);
    let mut lat0 = PathLatency::new(PathLatencyConfig::stable(config.path0_mean_us), config.seed);
    let mut lat1 = PathLatency::new(
        PathLatencyConfig::stable(config.path1_mean_us),
        config.seed ^ 1,
    );

    let mut flow: u32 = 0;
    let mut tx_at_attack = [0u64; 2];
    for epoch in 0..config.epochs {
        if epoch == config.attack_from_epoch {
            let agent = net.switches[&sw].borrow();
            let reg = agent
                .chassis()
                .register(routescout::regs::TX_COUNT)
                .unwrap();
            tx_at_attack = [reg.read(0).unwrap(), reg.read(1).unwrap()];
        }
        // Activate the adversary at the configured epoch: a tap on the C-DP
        // link, switch→controller direction, inflating path 0's latency sum.
        if scenario.adversary() && epoch == config.attack_from_epoch {
            let (link, _) = net
                .sim
                .topology()
                .link_at(sw, PortId::new(63))
                .expect("C-DP link exists");
            net.sim.install_tap(
                link,
                sw,
                ctrl_mitm::inflate_read_response(
                    routescout::reg_ids::LAT_SUM,
                    0,
                    config.inflation_factor,
                    ctrl_mitm::tamper_counter(),
                ),
            );
        }

        // Replay an epoch's worth of the synthetic trace through the switch.
        for _ in 0..config.packets_per_epoch {
            flow = flow.wrapping_add(1);
            let frame = RsFrame {
                flow,
                lat0_us: lat0.next_us(),
                lat1_us: lat1.next_us(),
            };
            let bytes = frame.encode();
            let now = net.sim.now();
            net.sim.with_node(sw, |node, out| {
                node.on_frame(now, PortId::new(9), bytes.clone().into(), out);
            });
        }
        net.sim.run_to_completion();

        // Controller epoch: read latencies, recompute, install.
        rs_controller.run_epoch(&mut net);
    }

    let agent = net.switches[&sw].borrow();
    let tx0 = agent
        .chassis()
        .register(routescout::regs::TX_COUNT)
        .unwrap()
        .read(0)
        .unwrap();
    let tx1 = agent
        .chassis()
        .register(routescout::regs::TX_COUNT)
        .unwrap()
        .read(1)
        .unwrap();
    let total = (tx0 + tx1).max(1) as f64;
    let post0 = tx0 - tx_at_attack[0];
    let post1 = tx1 - tx_at_attack[1];
    let post_total = (post0 + post1).max(1) as f64;

    Fig16Result {
        scenario,
        path_share: [tx0 as f64 / total, tx1 as f64 / total],
        post_attack_share: [post0 as f64 / post_total, post1 as f64 / post_total],
        final_split: rs_controller.split(),
        tamper_detections: rs_controller.tamper_alerts,
        packets: tx0 + tx1,
    }
}

/// Runs all three arms with the same configuration.
pub fn run_all(config: Fig16Config) -> Vec<Fig16Result> {
    Scenario::ALL.into_iter().map(|s| run(s, config)).collect()
}
