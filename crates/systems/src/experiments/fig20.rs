//! Fig. 20: key-management RTTs measured on the simulator.
//!
//! RTT is "the time elapsed from the first message exchange of key
//! initialization/updation until the key derivation" (§IX-B). Local
//! operations run over the (slow) C-DP channel; port-key initialization is
//! redirected via the controller, which checks digests on every leg; port
//! key updates run directly DP-DP and are the fastest despite exchanging
//! three messages.

use crate::harness::{ControllerNode, Network};
use p4auth_controller::ControllerConfig;
use p4auth_core::kmp::KeyOperation;
use p4auth_netsim::topology::Topology;
use p4auth_wire::ids::{PortId, SwitchId};

/// Measured RTTs in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fig20Result {
    /// Local key initialization (EAK + ADHKD, 4 messages).
    pub local_init_ns: u64,
    /// Local key update (ADHKD, 2 messages).
    pub local_update_ns: u64,
    /// Port key initialization (5 messages via the controller).
    pub port_init_ns: u64,
    /// Port key update (1 C-DP + 2 direct DP-DP messages).
    pub port_update_ns: u64,
}

impl Fig20Result {
    /// `(label, rtt_ns)` rows in the figure's order.
    pub fn rows(&self) -> [(&'static str, u64); 4] {
        [
            (KeyOperation::LocalInit.label(), self.local_init_ns),
            (KeyOperation::LocalUpdate.label(), self.local_update_ns),
            (KeyOperation::PortInit.label(), self.port_init_ns),
            (KeyOperation::PortUpdate.label(), self.port_update_ns),
        ]
    }
}

/// Measures all four KMP operations on a two-switch topology.
///
/// `c_dp_latency_ns` / `dp_dp_latency_ns` are the one-way link latencies
/// (defaults in [`measure_default`] match the workspace calibration).
pub fn measure(c_dp_latency_ns: u64, dp_dp_latency_ns: u64) -> Fig20Result {
    let mut topo = Topology::chain(2, dp_dp_latency_ns, c_dp_latency_ns);
    // chain(2) gives S1–S2 plus C-DP links; nothing else needed.
    let _ = &mut topo;
    let mut net = Network::build(
        topo,
        1,
        ControllerConfig::default(),
        0x5eed_0020,
        |_| None,
        |_, c| c,
    );

    let s1 = SwitchId::new(1);
    let s2 = SwitchId::new(2);

    // Local key init for S2 first so port-key legs toward S2 authenticate.
    let start = net.sim.now();
    let outgoing = net.set.borrow_mut().local_key_init(start.as_ns(), s2);
    inject_all(&mut net, outgoing);
    net.sim.run_to_completion();
    let _warmup = net.sim.now().since(start);

    // --- local key init (measured on S1) ---
    let start = net.sim.now();
    let outgoing = net.set.borrow_mut().local_key_init(start.as_ns(), s1);
    inject_all(&mut net, outgoing);
    net.sim.run_to_completion();
    let local_init_ns = net.sim.now().since(start);

    // --- local key update ---
    let start = net.sim.now();
    let outgoing = net.set.borrow_mut().core_mut(s1).local_key_update(s1);
    inject_all(&mut net, outgoing);
    net.sim.run_to_completion();
    let local_update_ns = net.sim.now().since(start);

    // --- port key init (S1:p2 <-> S2:p1) ---
    let start = net.sim.now();
    let outgoing =
        net.set
            .borrow_mut()
            .port_key_init(start.as_ns(), s1, PortId::new(2), s2, PortId::new(1));
    inject_all(&mut net, outgoing);
    net.sim.run_to_completion();
    let port_init_ns = net.sim.now().since(start);

    // --- port key update (direct DP-DP) ---
    let start = net.sim.now();
    let outgoing = net
        .set
        .borrow_mut()
        .port_key_update(start.as_ns(), s1, PortId::new(2), s2);
    inject_all(&mut net, outgoing);
    net.sim.run_to_completion();
    let port_update_ns = net.sim.now().since(start);

    Fig20Result {
        local_init_ns,
        local_update_ns,
        port_init_ns,
        port_update_ns,
    }
}

/// Measures with the workspace's calibrated latencies (200 µs C-DP,
/// 50 µs DP-DP — §IX-B scale).
pub fn measure_default() -> Fig20Result {
    measure(200_000, 50_000)
}

fn inject_all(net: &mut Network, outgoing: Vec<p4auth_controller::Outgoing>) {
    for o in outgoing {
        net.sim.inject_frame(
            SwitchId::CONTROLLER,
            ControllerNode::port_for(o.to),
            o.bytes,
        );
    }
}
