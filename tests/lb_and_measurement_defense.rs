//! Integration: the SilkRoad (LB) and FlowRadar (measurement) rows of
//! Table I, end to end (`p4auth::systems::table1`). Each row runs both
//! arms: the invariant must hold with P4Auth on and break without it, or it
//! proves nothing.

use p4auth::controller::ControllerEvent;
use p4auth::core::auth::RejectReason;
use p4auth::systems::flowradar;
use p4auth::systems::table1::{self, S1};
use p4auth::wire::body::AlertKind;

/// Invariant: SilkRoad never remaps an established connection.
#[test]
fn silkroad_forged_transit_clear_is_blocked_by_p4auth() {
    let arm = table1::silkroad(true);
    assert!(arm.held, "{arm:?}");
    // The forged clear was dropped, so the pending connection kept its
    // transit bit and its DIP.
    assert_eq!(
        arm.observed,
        "transit bit 1 after the forged clear, 0 pending connection(s) remapped"
    );
    assert_eq!(arm.detections, 1);
    assert!(
        arm.events.contains(&ControllerEvent::AlertReceived {
            switch: S1,
            kind: AlertKind::DigestMismatch
        }),
        "the forged clear is reported: {:?}",
        arm.events
    );
}

#[test]
fn silkroad_forged_transit_clear_breaks_affinity_without_p4auth() {
    let arm = table1::silkroad(false);
    assert!(!arm.held, "the unprotected arm must remap the connection");
    // The forged value cleared the connection's bit.
    assert_eq!(
        arm.observed,
        "transit bit 0 after the forged clear, 1 pending connection(s) remapped"
    );
}

fn value_reads(events: &[ControllerEvent]) -> usize {
    events
        .iter()
        .filter(|e| matches!(e, ControllerEvent::ValueRead { .. }))
        .count()
}

/// Invariant: the controller never accepts a decoded count that differs
/// from ground truth.
#[test]
fn flowradar_tampered_export_is_rejected_with_p4auth() {
    let arm = table1::flowradar(true);
    assert!(
        arm.events.contains(&ControllerEvent::Rejected {
            switch: S1,
            reason: RejectReason::BadDigest
        }),
        "the tampered response is rejected: {:?}",
        arm.events
    );
    assert_eq!(arm.detections, 1);
    // The rejected cell never reaches the controller, and an export with
    // a cell missing is not decoded: no count is accepted, so no wrong
    // count is. Every other read arrived.
    assert!(arm.held, "{arm:?}");
    assert_eq!(
        arm.observed,
        "0 of 3 flow counts wrong, 1 cell read(s) rejected"
    );
    assert_eq!(value_reads(&arm.events), 3 * flowradar::CELLS as usize - 1);
}

#[test]
fn flowradar_tampered_export_poisons_counts_without_p4auth() {
    let arm = table1::flowradar(false);
    assert!(
        !arm.events
            .iter()
            .any(|e| matches!(e, ControllerEvent::Rejected { .. })),
        "nothing is checked in the unprotected arm: {:?}",
        arm.events
    );
    assert_eq!(arm.detections, 0);
    assert!(!arm.held, "the unprotected arm must be fooled");
    assert_eq!(
        arm.observed,
        "1 of 3 flow counts wrong, 0 cell read(s) rejected"
    );
    assert_eq!(value_reads(&arm.events), 3 * flowradar::CELLS as usize);
}
