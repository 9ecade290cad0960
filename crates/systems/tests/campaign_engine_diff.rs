//! Engine differential over fault-injected campaign fabrics.
//!
//! Every scenario campaign's fabric phase — the user-scale workload with
//! its [`FaultPlan`](p4auth_netsim::fault::FaultPlan) installed — must be
//! bit-identical on the calendar reference and every engine of
//! `Engine::DIFFERENTIAL`. This extends the plain-workload engine
//! differentials (`engine_diff.rs`, `aggregate_diff.rs`) to runs with link
//! churn: faults are first-class sim events, so engine choice must never
//! leak into what a fault run computes.

use p4auth_systems::campaigns::fabric_plans;
use p4auth_systems::scaleload::Engine;
use p4auth_systems::userscale::{run_users_engine, UserScaleConfig, UserScaleRun};

fn run(plan_name: &str, engine: Engine) -> UserScaleRun {
    let (_, plan) = fabric_plans()
        .into_iter()
        .find(|(n, _)| *n == plan_name)
        .expect("known campaign");
    let mut cfg = UserScaleConfig::for_k(4, 3_000, 2);
    cfg.faults = Some(plan);
    run_users_engine(&cfg, engine, None)
}

fn assert_engines_agree(name: &str) {
    let cal = run(name, Engine::REFERENCE);
    for engine in Engine::DIFFERENTIAL {
        let (engine, other) = (engine.label(), run(name, engine));
        assert_eq!(
            cal.fingerprint(),
            other.fingerprint(),
            "{name}: {engine} diverged from calendar"
        );
        assert_eq!(
            cal.stats, other.stats,
            "{name}: {engine} drop taxonomy/fault counts diverged"
        );
    }
    assert!(
        cal.stats.faults_applied > 0 || name == "boot_storm_digest_flood",
        "{name}: the fault plan must actually fire"
    );
}

#[test]
fn campaign_fabrics_are_engine_invariant() {
    let names: Vec<&'static str> = fabric_plans().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names.len(), 5);
    for name in names {
        assert_engines_agree(name);
    }
}
