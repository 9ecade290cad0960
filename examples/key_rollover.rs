//! The key-management lifecycle (Fig. 14): boot-time EAK + ADHKD
//! initialization for local and port keys, then periodic rollover — with
//! the measured RTT of each operation (Fig. 20).
//!
//! ```sh
//! cargo run --example key_rollover
//! ```

use p4auth::controller::ControllerConfig;
use p4auth::netsim::topology::Topology;
use p4auth::systems::experiments::fig20;
use p4auth::systems::harness::{ControllerNode, Network};
use p4auth::wire::ids::{PortId, SwitchId};

fn main() {
    println!("P4Auth key management lifecycle on a 3-switch chain\n");

    let mut net = Network::build(
        Topology::chain(3, 50_000, 200_000),
        1,
        ControllerConfig::default(),
        0x2011_0e47,
        |_| None,
        |_, c| c,
    );

    // --- boot: local keys (EAK + ADHKD) then port keys (redirected) ----
    let elapsed = net.bootstrap_keys();
    println!("bootstrap completed in {elapsed} of simulated time");
    for (id, sw) in &net.switches {
        let sw = sw.borrow();
        let ports: Vec<String> = (0..=u8::MAX)
            .map(PortId::new)
            .filter(|&p| sw.keys(p).is_installed())
            .map(|p| p.to_string())
            .collect();
        println!("  {id}: keys installed for [{}]", ports.join(", "));
    }

    // --- periodic rollover (§VIII: ≤180 days wall-clock; here we just
    //     demonstrate the exchanges) --------------------------------------
    let s1 = SwitchId::new(1);
    let s2 = SwitchId::new(2);

    let v_before = net.switches[&s1].borrow().keys(PortId::CPU).version();
    let out = net.set.borrow_mut().core_mut(s1).local_key_update(s1);
    for o in out {
        net.sim.inject_frame(
            SwitchId::CONTROLLER,
            ControllerNode::port_for(o.to),
            o.bytes,
        );
    }
    net.sim.run_to_completion();
    let v_after = net.switches[&s1].borrow().keys(PortId::CPU).version();
    println!("\nlocal key rollover on S1: version {v_before} -> {v_after}");

    let out = net
        .set
        .borrow_mut()
        .core_mut(s1)
        .port_key_update(s1, PortId::new(2), s2);
    for o in out {
        net.sim.inject_frame(
            SwitchId::CONTROLLER,
            ControllerNode::port_for(o.to),
            o.bytes,
        );
    }
    net.sim.run_to_completion();
    let k1 = net.switches[&s1].borrow().keys(PortId::new(2)).version();
    println!("port key rollover S1<->S2: now at version {k1} (direct DP-DP exchange)");

    // --- Fig. 20: per-operation RTTs ------------------------------------
    println!("\nKMP round-trip times (Fig. 20 reproduction):");
    for (label, ns) in fig20::measure_default().rows() {
        println!("  {label:<18} {:6.3} ms", ns as f64 / 1e6);
    }
    println!("\n(port init is slowest: 5 messages redirected via the controller;");
    println!(" port update is fastest: the DP-DP exchange skips the controller)");
}
