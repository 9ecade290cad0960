//! Fig. 21: in-network control-message processing time vs. hop count.
//!
//! A HULA probe traverses a chain of BMv2-profile switches; each on-path
//! switch verifies the probe's digest with its ingress port key and
//! re-seals it with its egress port key. The experiment measures probe
//! traversal time with and without P4Auth as the chain grows, reproducing
//! the paper's observation that the overhead grows linearly with hop
//! count and stays in the single-digit percents.

use crate::harness::Network;
use crate::hula::{HulaApp, HulaConfig, Probe, HULA_SYSTEM_ID};
use p4auth_controller::ControllerConfig;
use p4auth_netsim::topology::Topology;
use p4auth_wire::ids::{PortId, SwitchId};

/// One row of Fig. 21.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopsPoint {
    /// Number of hops the probe traverses (switches minus one).
    pub hops: u16,
    /// Traversal time without P4Auth (ns of simulated time).
    pub baseline_ns: u64,
    /// Traversal time with P4Auth.
    pub p4auth_ns: u64,
}

impl HopsPoint {
    /// P4Auth overhead as a percentage of the baseline.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.p4auth_ns as f64 - self.baseline_ns as f64) / self.baseline_ns as f64
    }
}

/// Fixed measurement-fixture cost added to every traversal: the Mininet
/// host's packet generation, kernel veth TX/RX and capture path in the
/// paper's BMv2 setup. Both arms pay it, which is why P4Auth's *relative*
/// overhead grows with hop count (the fixture amortizes).
pub const HOST_FIXTURE_NS: u64 = 8_000_000;

/// Measures probe traversal across an `n_switches` chain, with or without
/// P4Auth, on the BMv2 cost profile.
pub fn probe_traversal_ns(n_switches: u16, p4auth: bool) -> u64 {
    // Mininet veth links have negligible propagation latency.
    let topo = Topology::chain(n_switches, 10_000, 2_000_000);
    let mut net = Network::build(
        topo,
        1,
        ControllerConfig {
            auth_enabled: p4auth,
            ..ControllerConfig::default()
        },
        0x5eed_0021,
        |_| Some(HulaApp::boxed(HulaConfig::new(64, 2))),
        move |_, config| {
            let config = config.bmv2();
            if p4auth {
                config
            } else {
                config.insecure_baseline()
            }
        },
    );
    if p4auth {
        net.bootstrap_keys();
        let _ = net.take_events();
    }

    // Probe from S1 toward the end of the chain (S1's port 2 faces S2).
    let start = net.sim.now();
    let probe = Probe {
        dst: n_switches,
        round: 1,
        util: 0,
    };
    net.originate_probe(
        SwitchId::new(1),
        PortId::new(2),
        HULA_SYSTEM_ID,
        probe.encode(),
    );
    net.sim.run_to_completion();
    HOST_FIXTURE_NS + net.sim.now().since(start)
}

/// Runs the full Fig. 21 sweep (hop counts 2..=max_hops).
pub fn sweep(max_hops: u16) -> Vec<HopsPoint> {
    (2..=max_hops)
        .map(|hops| {
            // `hops` link traversals need `hops + 1` switches.
            let n = hops + 1;
            HopsPoint {
                hops,
                baseline_ns: probe_traversal_ns(n, false),
                p4auth_ns: probe_traversal_ns(n, true),
            }
        })
        .collect()
}
