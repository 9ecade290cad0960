//! Integration: (a) the defence results hold across independent key-material
//! seeds — not an artifact of one lucky run; (b) the Blink fast-reroute row
//! of Table I end to end.

use p4auth::attacks::ctrl_mitm;
use p4auth::controller::{ControllerConfig, ControllerEvent};
use p4auth::core::agent::AgentConfig;
use p4auth::netsim::topology::Topology;
use p4auth::systems::blink::{self, BlinkApp, BlinkFrame};
use p4auth::systems::experiments::{fig16, fig17, Scenario};
use p4auth::systems::harness::Network;
use p4auth::wire::body::AlertKind;
use p4auth::wire::ids::{PortId, SwitchId};

const SEEDS: [u64; 3] = [0xaaaa_0001, 0xbbbb_0002, 0xcccc_0003];

#[test]
fn fig17_defence_holds_across_seeds() {
    for seed in SEEDS {
        let cfg = fig17::Fig17Config {
            seed,
            ..fig17::Fig17Config::default()
        };
        let attacked = fig17::run(Scenario::Adversary, cfg);
        assert!(
            attacked.path_share[2] > 0.7,
            "seed {seed:#x}: {:?}",
            attacked.path_share
        );
        let defended = fig17::run(Scenario::AdversaryWithP4Auth, cfg);
        assert!(
            defended.path_share[2] < 0.01,
            "seed {seed:#x}: {:?}",
            defended.path_share
        );
        assert!(defended.alerts > 0, "seed {seed:#x}");
        assert_eq!(defended.delivered, defended.injected, "seed {seed:#x}");
    }
}

#[test]
fn fig16_defence_holds_across_seeds() {
    for seed in SEEDS {
        let cfg = fig16::Fig16Config {
            seed,
            ..fig16::Fig16Config::default()
        };
        let attacked = fig16::run(Scenario::Adversary, cfg);
        assert!(
            attacked.post_attack_share[1] > 0.6,
            "seed {seed:#x}: {:?}",
            attacked.post_attack_share
        );
        let defended = fig16::run(Scenario::AdversaryWithP4Auth, cfg);
        let clean = fig16::run(Scenario::NoAdversary, cfg);
        // The defended split freezes at the attack epoch; the clean run
        // keeps adapting to latency jitter, so allow a ±2pp band.
        let diff = defended.final_split.abs_diff(clean.final_split);
        assert!(
            diff <= 2,
            "seed {seed:#x}: defended {} vs clean {}",
            defended.final_split,
            clean.final_split
        );
        assert!(defended.tamper_detections > 0, "seed {seed:#x}");
    }
}

// ----------------------------------------------------------- Blink / FRR

const S1: SwitchId = SwitchId::new(1);

fn blink_network(auth: bool) -> Network {
    let mut net = Network::build(
        Topology::chain(1, 50_000, 200_000),
        1,
        ControllerConfig {
            auth_enabled: auth,
            ..ControllerConfig::default()
        },
        0xb11c,
        |_| Some(BlinkApp::boxed()),
        move |_, config: AgentConfig| {
            let mut config = config
                .map_register(blink::reg_ids::PRIMARY, blink::regs::PRIMARY)
                .map_register(blink::reg_ids::BACKUP, blink::regs::BACKUP)
                .map_register(blink::reg_ids::FAILED_OVER, blink::regs::FAILED_OVER);
            // Blink forwards onto next-hop ports 1..4 that have no links in
            // this single-switch topology; size the chassis for them.
            config.num_ports = 4;
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

fn backup_port(net: &Network, prefix: u32) -> u64 {
    net.switches[&S1]
        .borrow()
        .chassis()
        .register(blink::regs::BACKUP)
        .unwrap()
        .read(prefix)
        .unwrap()
}

#[test]
fn blink_backup_poisoning_lands_without_p4auth() {
    let mut net = blink_network(false);
    let count = ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    net.sim.install_tap(
        link,
        SwitchId::CONTROLLER,
        ctrl_mitm::rewrite_write_request(blink::reg_ids::BACKUP, 0, 4, count.clone()),
    );
    // The operator re-provisions the backup next hop; the adversary
    // rewrites it to their own port.
    net.controller_write(S1, blink::reg_ids::BACKUP, 0, 3);
    net.sim.run_to_completion();
    assert_eq!(*count.borrow(), 1);
    assert_eq!(backup_port(&net, 0), 4, "poisoned backup installed");
}

#[test]
fn blink_backup_poisoning_blocked_with_p4auth_and_failover_still_works() {
    let mut net = blink_network(true);
    let count = ctrl_mitm::tamper_counter();
    let (link, _) = net.sim.topology().link_at(S1, PortId::new(63)).unwrap();
    net.sim.install_tap(
        link,
        SwitchId::CONTROLLER,
        ctrl_mitm::rewrite_write_request(blink::reg_ids::BACKUP, 0, 4, count.clone()),
    );
    net.controller_write(S1, blink::reg_ids::BACKUP, 0, 3);
    net.sim.run_to_completion();
    assert_eq!(*count.borrow(), 1);
    // The tampered update was rejected: the backup keeps its prior value.
    assert_eq!(backup_port(&net, 0), 2);
    let events = net.take_events();
    assert!(events.iter().any(|e| matches!(
        e,
        ControllerEvent::AlertReceived {
            kind: AlertKind::DigestMismatch,
            ..
        }
    )));

    // An outage now fires fast reroute onto the *legitimate* backup.
    let mut sw = net.switches[&S1].borrow_mut();
    for i in 0..blink::RETRANS_THRESHOLD + 1 {
        let frame = BlinkFrame {
            prefix: 0,
            retransmission: i < blink::RETRANS_THRESHOLD,
        };
        let out = sw.on_packet(0, PortId::new(9), &frame.encode());
        if i == blink::RETRANS_THRESHOLD {
            assert_eq!(
                out.outputs[0].0,
                PortId::new(2),
                "failover to the real backup"
            );
        }
    }
}
