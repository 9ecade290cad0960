//! §XI scalability analysis: P4Auth key management on a production-scale
//! WAN with a physically-distributed controller (the paper's ONOS
//! example), plus a live simulated bootstrap cross-check.
//!
//! ```sh
//! cargo run --example wan_scalability
//! ```

use p4auth::controller::ControllerConfig;
use p4auth::core::kmp::{KeyOperation, NetworkScale, ShardedDeployment};
use p4auth::core::secure_channel::SecureChannel;
use p4auth::netsim::topology::Topology;
use p4auth::primitives::kdf::Kdf;
use p4auth::primitives::{Key64, Salt64};
use p4auth::systems::harness::Network;
use p4auth::wire::ids::SeqNum;

fn main() {
    println!("P4Auth key-management scalability (§XI)\n");

    println!("per-operation costs (Table III):");
    for op in KeyOperation::ALL {
        println!(
            "  {:<18} {} messages, {:>3} bytes",
            op.label(),
            op.message_count(),
            op.byte_count()
        );
    }

    let wan = ShardedDeployment::ONOS_WAN;
    println!(
        "\nONOS WAN: {} switches, {} links, {} controllers",
        wan.switches, wan.links, wan.controllers
    );
    let shard = wan.per_controller();
    println!(
        "  per-controller shard: {} switches, {} links",
        shard.switches, shard.links
    );
    println!(
        "  simultaneous key init at one controller: {} messages, {:.1} KB",
        shard.init_messages(),
        shard.init_bytes() as f64 / 1000.0
    );
    println!(
        "  simultaneous key update: {} messages, {:.1} KB",
        shard.update_messages(),
        shard.update_bytes() as f64 / 1000.0
    );
    println!(
        "  sequential init @2ms/op: {:.0} ms; update @1ms/op: {:.0} ms",
        wan.sequential_init_ns(2_000_000) as f64 / 1e6,
        wan.sequential_update_ns(1_000_000) as f64 / 1e6
    );
    for batch in [4, 8, 16] {
        println!(
            "  batched init ({batch:>2}-wide): {:.0} ms",
            wan.batched_init_ns(2_000_000, batch) as f64 / 1e6
        );
    }

    // Live cross-check on a simulated chain: analytic message counts vs
    // frames actually exchanged by the protocols.
    println!("\nsimulated bootstrap cross-check:");
    for n in [2u16, 4, 8] {
        let mut net = Network::build(
            Topology::chain(n, 50_000, 200_000),
            1,
            ControllerConfig::default(),
            0x3a1e,
            |_| None,
            |_, c| c,
        );
        let before = net.sim.stats().frames_delivered;
        let elapsed = net.bootstrap_keys();
        let frames = net.sim.stats().frames_delivered - before;
        let analytic = NetworkScale {
            switches: n as u64,
            links: n as u64 - 1,
        }
        .init_messages();
        println!(
            "  chain of {n}: {frames} frames (analytic 4m+5n = {analytic}), {elapsed} simulated"
        );
    }

    // §XI's other extension: confidentiality from the same master secret,
    // priced per message counted above.
    let channel = SecureChannel::derive(Key64::new(0x000a_57e2), Salt64::new(7), &Kdf::default());
    let len = KeyOperation::LocalUpdate.byte_count() as usize / 2;
    let mut sealed = channel.protect(SeqNum::new(1), &vec![0xa5; len]);
    assert!(channel.open(SeqNum::new(1), &sealed).is_some());
    sealed.ciphertext[0] ^= 1;
    println!("\n§XI encrypt-then-MAC channel (keys derived from the same master secret):");
    println!(
        "  a {len}-byte key-update message costs {} hash passes instead of 1",
        SecureChannel::hash_passes(len)
    );
    println!(
        "  one flipped ciphertext bit: {}",
        match channel.open(SeqNum::new(1), &sealed) {
            None => "rejected before decryption",
            Some(_) => "ACCEPTED",
        }
    );
}
