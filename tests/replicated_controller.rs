//! End-to-end gate for the replicated controller: the full scenario
//! (bootstrap across partitions, flood defence with one mitigation, MITM
//! tamper rejection at the owner replica, versioned bulk rollover)
//! must pass on a fat-tree with ≥2 replicas, and its machine-readable
//! report must be bit-identical across two in-process runs — the same
//! property CI checks across two separate processes.

use p4auth_systems::campaigns::churn_defence_phases;
use p4auth_systems::replicated::{run, ReplicatedConfig};

/// The fault-only campaigns' defence phases — correlated flap churn and
/// whole-switch failure — on two replicas: recovery starts several
/// cross-partition port-key exchanges at once, and every DP-DP link must
/// end with equal keys on both ends (as must every other invariant the
/// campaigns assert at one replica).
#[test]
fn churn_campaign_defence_phases_hold_on_two_replicas() {
    for (campaign, checks) in churn_defence_phases(2) {
        assert!(
            checks
                .iter()
                .any(|c| c.name == "post_recovery_keys_converged"),
            "{campaign} asserts port-key equality"
        );
        for c in &checks {
            assert!(c.passed, "{campaign}/{}: {}", c.name, c.detail);
        }
    }
}

#[test]
fn replicated_fat_tree_two_runs_bit_identical() {
    let first = run(ReplicatedConfig::default());

    assert!(first.replicas >= 2, "scenario must exercise >= 2 replicas");
    assert_eq!(first.switches, 20, "fat_tree(4) has 20 switches");
    assert!(
        first.partition_sizes.iter().all(|&n| n > 0),
        "every replica must own at least one switch"
    );
    assert!(first.cross_partition_links > 0);
    assert_eq!(
        first.flood_mitigations, 1,
        "one threshold crossing, one mitigation"
    );
    assert!(first.victim_key_rolled);
    assert!(first.mitm_tampered > 0 && first.mitm_rejects_at_owner > 0);
    assert_eq!(first.rollover_epoch, 1);
    assert!(first.rollover_complete);
    assert!(first.fanout_ns.iter().all(|&ns| ns > 0));

    let second = run(ReplicatedConfig::default());
    assert_eq!(
        first.to_json(),
        second.to_json(),
        "replicated run must be deterministic (telemetry included)"
    );
}
