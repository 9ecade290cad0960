//! Integration: Table I on the seven systems it names and the §VIII
//! security analysis, plus cross-cutting adversary behaviour.

use p4auth::attacks::bruteforce;
use p4auth::primitives::mac::{Crc32Mac, HalfSipHashMac, Mac};
use p4auth::primitives::rng::SplitMix64;
use p4auth::primitives::Key64;
use p4auth::systems::table1;
use std::collections::HashSet;

#[test]
fn table1_all_five_system_classes() {
    let verdicts = table1::run_all();
    assert_eq!(verdicts.len(), 7);
    let classes: HashSet<_> = verdicts.iter().map(|v| v.row.class).collect();
    assert_eq!(classes.len(), 5, "{classes:?}");
    for v in &verdicts {
        assert!(v.reproduced(), "{v:?}");
        assert_eq!(v.unprotected.detections, 0, "{v:?}");
        assert_ne!(v.unprotected.observed, v.protected.observed);
    }
}

#[test]
fn table1_each_class_has_distinct_semantics() {
    // Each row names its own system, attack and invariant.
    for field in [
        |r: &table1::Row| r.system,
        |r: &table1::Row| r.attack,
        |r: &table1::Row| r.invariant,
    ] {
        let distinct: HashSet<_> = table1::ROWS.iter().map(field).collect();
        assert_eq!(distinct.len(), table1::ROWS.len(), "{distinct:?}");
    }
}

#[test]
fn digest_bruteforce_is_infeasible_and_loud() {
    // §VIII "Digest size": 2^32 space, one alert per failed guess.
    let mac = HalfSipHashMac::default();
    let mut rng = SplitMix64::new(99);
    let trials = 50_000;
    let hits = bruteforce::run_digest_guessing(
        &mac,
        Key64::new(0x5ec2e7),
        b"writeReq idx=0 val=1",
        trials,
        &mut rng,
    );
    assert_eq!(hits, 0);
    assert_eq!(bruteforce::expected_alerts(trials), trials);
    assert!(bruteforce::digest_guess_success_probability(trials, 32) < 2e-5);
}

#[test]
fn key_bruteforce_defeated_by_rollover_policy() {
    // §VIII "Secret key size": 64-bit keys + ≤180-day rollover.
    assert!(bruteforce::key_search_days(64) > 50_000.0);
    assert!(bruteforce::rollover_defeats_bruteforce(64, 180.0));
    // The analysis also shows why 56-bit keys would be inadequate.
    assert!(!bruteforce::rollover_defeats_bruteforce(56, 365.0));
}

#[test]
fn both_mac_profiles_protect_the_gallery() {
    // The gallery runs on the default HalfSipHash profile; verify the
    // Tofino (keyed CRC) profile also rejects blind tampering on a
    // representative message.
    for mac in [&HalfSipHashMac::default() as &dyn Mac, &Crc32Mac] {
        let key = Key64::new(0x7ab1e);
        let digest = mac.compute(key, &[b"split=50"]);
        assert!(mac.verify(key, &[b"split=50"], digest));
        assert!(
            !mac.verify(key, &[b"split=90"], digest),
            "{} failed",
            mac.name()
        );
    }
}
