//! Fig. 20: key-management RTTs measured on the simulator.
//!
//! RTT is "the time elapsed from the first message exchange of key
//! initialization/updation until the key derivation" (§IX-B). Local
//! operations run over the (slow) C-DP channel; port-key initialization is
//! redirected via the controller, which checks digests on every leg; port
//! key updates run directly DP-DP and are the fastest despite exchanging
//! three messages.

use crate::harness::{ControllerNode, Network};
use p4auth_controller::{ControllerConfig, Outgoing, ReplicaSet};
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
    let [local_init_ns, local_update_ns, port_init_ns, port_update_ns] =
        run(c_dp_latency_ns, dp_dp_latency_ns).map(|(rtt_ns, _)| rtt_ns);
    Fig20Result {
        local_init_ns,
        local_update_ns,
        port_init_ns,
        port_update_ns,
    }
}

/// Runs the four operations in [`KeyOperation::ALL`]'s order on a
/// two-switch topology: each one's RTT and the frames it delivered.
fn run(c_dp_latency_ns: u64, dp_dp_latency_ns: u64) -> [(u64, u64); 4] {
    let topo = Topology::chain(2, dp_dp_latency_ns, c_dp_latency_ns);
    let mut net = Network::build(
        topo,
        1,
        ControllerConfig::default(),
        0x5eed_0020,
        |_| None,
        |_, c| c,
    );
    let (s1, s2) = (SwitchId::new(1), SwitchId::new(2));

    // Local key init for S2 first so port-key legs toward S2 authenticate.
    timed(&mut net, |set, now_ns| set.local_key_init(now_ns, s2));
    [
        // Measured on S1.
        timed(&mut net, |set, now_ns| set.local_key_init(now_ns, s1)),
        timed(&mut net, |set, _| set.core_mut(s1).local_key_update(s1)),
        // S1:p2 <-> S2:p1, redirected via the controller.
        timed(&mut net, |set, now_ns| {
            set.port_key_init(now_ns, s1, PortId::new(2), s2, PortId::new(1))
        }),
        // Direct DP-DP.
        timed(&mut net, |set, now_ns| {
            set.port_key_update(now_ns, s1, PortId::new(2), s2)
        }),
    ]
}

/// Starts one operation at the current sim time and runs the simulation
/// until it is quiet: the operation's RTT and the frames it delivered.
fn timed(
    net: &mut Network,
    start: impl FnOnce(&mut ReplicaSet, u64) -> Vec<Outgoing>,
) -> (u64, u64) {
    let (at, frames) = (net.sim.now(), net.sim.stats().frames_delivered);
    let outgoing = start(&mut net.set.borrow_mut(), at.as_ns());
    inject_all(net, outgoing);
    net.sim.run_to_completion();
    let delivered = net.sim.stats().frames_delivered - frames;
    (net.sim.now().since(at), delivered)
}

/// Measures with the workspace's calibrated latencies (200 µs C-DP,
/// 50 µs DP-DP — §IX-B scale).
pub fn measure_default() -> Fig20Result {
    measure(200_000, 50_000)
}

fn inject_all(net: &mut Network, outgoing: Vec<Outgoing>) {
    for o in outgoing {
        net.sim.inject_frame(
            SwitchId::CONTROLLER,
            ControllerNode::port_for(o.to),
            o.bytes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table III's per-operation message counts are what the simulator
    /// delivers, not only what `KeyOperation::message_count` says.
    #[test]
    fn each_operation_delivers_its_table_iii_message_count() {
        let frames = run(200_000, 50_000).map(|(_, frames)| frames);
        assert_eq!(frames, [4, 2, 5, 3]);
        assert_eq!(
            frames,
            KeyOperation::ALL.map(|op| u64::from(op.message_count()))
        );
    }
}
