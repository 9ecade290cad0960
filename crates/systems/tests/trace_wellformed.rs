//! Property tests for the causal flight recorder: randomly generated
//! fault-plan campaigns must produce trace-span streams that are
//! well-formed (every span nests inside its parent's interval, exactly
//! one root per trace) and byte-for-byte identical on the calendar
//! reference and every engine of `Engine::DIFFERENTIAL` — the same
//! engine-invariance discipline the metric snapshots already obey,
//! extended to the span layer.

use p4auth_netsim::fattree::FatTree;
use p4auth_netsim::fault::FaultPlan;
use p4auth_netsim::topology::LinkId;
use p4auth_systems::scaleload::Engine;
use p4auth_systems::userscale::{run_users_engine, UserScaleConfig};
use p4auth_telemetry::trace::{encode_trace, validate_well_formed};
use p4auth_telemetry::{Registry, SpanRecord};
use proptest::prelude::*;
use std::sync::Arc;

/// Span capacity comfortably above anything a smoke-scale fabric emits;
/// byte-identity across engines is only guaranteed at zero drops.
const TRACE_CAP: usize = 1 << 16;

/// Runs the fabric workload with `plan` installed on `engine`, tracing
/// enabled, and returns the canonical span stream plus the drop count.
fn traced_run(plan: &FaultPlan, engine: Engine) -> (Vec<SpanRecord>, u64) {
    let registry = Arc::new(Registry::with_capacities(0, TRACE_CAP));
    let mut cfg = UserScaleConfig::for_k(4, 600, 1);
    cfg.faults = Some(plan.clone());
    let run = run_users_engine(&cfg, engine, Some(registry.clone()));
    assert!(run.frames_sent > 0, "the fabric must move frames");
    (
        registry.trace().sorted_records(),
        registry.trace().dropped(),
    )
}

/// Builds a fault plan from raw `(link, down, duration)` triples, with
/// link indices wrapped into the topology's link table.
fn plan_from(flaps: &[(u8, u64, u64)]) -> FaultPlan {
    let topo = FatTree::new(4).build(1_500);
    let n = topo.links().len() as u32;
    let mut plan = FaultPlan::new();
    for &(link, down, duration) in flaps {
        let down = 10_000 + down;
        plan.flap(LinkId(u32::from(link) % n), down, down + duration.max(1));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random flap schedules: each engine's span stream is
    /// well-formed, nothing is dropped, and the encoded `P4TR` bytes are
    /// identical on every engine.
    #[test]
    fn random_fault_campaign_traces_are_engine_invariant(
        flaps in proptest::collection::vec(
            (any::<u8>(), 0u64..2_000_000, 10_000u64..1_000_000),
            0..4,
        ),
    ) {
        let plan = plan_from(&flaps);
        let (reference, dropped) = traced_run(&plan, Engine::REFERENCE);
        prop_assert_eq!(dropped, 0, "calendar run dropped spans");
        prop_assert!(!reference.is_empty(), "the fabric emits spans");
        validate_well_formed(&reference).expect("calendar trace well-formed");
        let want = encode_trace(&reference, 0);

        for engine in Engine::DIFFERENTIAL {
            let label = engine.label();
            let (records, dropped) = traced_run(&plan, engine);
            prop_assert_eq!(dropped, 0, "{} run dropped spans", &label);
            validate_well_formed(&records).expect("trace well-formed");
            prop_assert_eq!(
                &encode_trace(&records, 0),
                &want,
                "{} trace diverged from calendar",
                &label
            );
        }
    }
}
