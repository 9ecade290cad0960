//! Integration: (a) the defence results hold across independent key-material
//! seeds — not an artifact of one lucky run; (b) the Blink fast-reroute row
//! of Table I end to end.

use p4auth::controller::ControllerEvent;
use p4auth::systems::experiments::{fig16, fig17, Scenario};
use p4auth::systems::table1::{self, S1};
use p4auth::wire::body::AlertKind;

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

#[test]
fn blink_backup_poisoning_lands_without_p4auth() {
    // The operator re-provisions the backup next hop; the adversary
    // rewrites it to their own port, and fast reroute follows it.
    let arm = table1::blink(false);
    assert!(!arm.held, "{arm:?}");
    assert_eq!(arm.observed, "fails over to port 4");
}

#[test]
fn blink_backup_poisoning_blocked_with_p4auth_and_failover_still_works() {
    // The tampered update is rejected, so the backup keeps its prior
    // value and an outage fails over onto it.
    let arm = table1::blink(true);
    assert!(arm.held, "{arm:?}");
    assert_eq!(arm.observed, "fails over to port 2");
    assert_eq!(arm.detections, 1);
    assert!(
        arm.events.contains(&ControllerEvent::AlertReceived {
            switch: S1,
            kind: AlertKind::DigestMismatch
        }),
        "the rewritten update is reported: {:?}",
        arm.events
    );
}
