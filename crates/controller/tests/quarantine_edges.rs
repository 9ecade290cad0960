//! Quarantine edge cases: a lift racing a concurrently re-driven
//! rollover, and the key-exchange exemption while the channel is locked
//! down. Both scenarios exercise the defence loop's in-flight hysteresis
//! from outside the crate, through the public API only.

use p4auth_controller::MitigationKind;
use p4auth_controller::{Controller, ControllerConfig, ControllerEvent, DefenceConfig, Outgoing};
use p4auth_core::agent::{AgentConfig, P4AuthSwitch};
use p4auth_core::auth::RejectReason;
use p4auth_primitives::Key64;
use p4auth_telemetry::Registry;
use p4auth_wire::body::{Body, EakStep, KeyExchange, RegisterOp};
use p4auth_wire::ids::{PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::Message;
use std::sync::Arc;

/// Ping-pongs key-exchange traffic between controller and agent until
/// neither side has anything left to say.
fn pump(c: &mut Controller, sw: SwitchId, agent: &mut P4AuthSwitch, mut pending: Vec<Outgoing>) {
    let mut rounds = 0;
    while !pending.is_empty() {
        rounds += 1;
        assert!(rounds < 64, "key exchange did not converge");
        let mut next = Vec::new();
        for o in pending {
            let output = agent.on_packet(0, PortId::CPU, &o.bytes);
            for (_, bytes) in output.outputs {
                let (more, _) = c.on_message(sw, &bytes);
                next.extend(more);
            }
        }
        pending = next;
    }
}

/// Controller + agent with an established local key and the defence loop
/// armed (threshold 3 inside a 1 ms window).
fn defended_pair(registry: &Arc<Registry>) -> (Controller, SwitchId, P4AuthSwitch) {
    let mut c = Controller::new(ControllerConfig::default());
    c.set_telemetry(registry.clone());
    let sw = SwitchId::new(1);
    let k_seed = Key64::new(0x5eed);
    c.register_switch(sw, k_seed);
    c.enable_defence(DefenceConfig {
        window_ns: 1_000_000,
        reject_threshold: 3,
        escalation_window_ns: 100_000_000,
    });
    let mut agent = P4AuthSwitch::new(AgentConfig::new(sw, 4, k_seed), None);
    let init = c.local_key_init(sw);
    pump(&mut c, sw, &mut agent, init);
    assert!(c.has_local_key(sw), "bootstrap failed");
    (c, sw, agent)
}

/// Well-formed but unsigned register ack: decodes fine, fails digest
/// verification.
fn forged(sw: SwitchId, seq: u32) -> Vec<u8> {
    Message::new(
        sw,
        PortId::CPU,
        SeqNum::new(seq),
        Body::Register(RegisterOp::Ack {
            reg: RegId::new(1),
            index: 0,
            value: 0,
        }),
    )
    .encode()
}

/// Like [`forged`] but claiming the agent's *current* key version, so the
/// frame reaches digest verification even after rollovers retired the
/// initial epoch.
fn forged_current_epoch(sw: SwitchId, seq: u32, agent: &P4AuthSwitch) -> Vec<u8> {
    Message::new(
        sw,
        PortId::CPU,
        SeqNum::new(seq),
        Body::Register(RegisterOp::Ack {
            reg: RegId::new(1),
            index: 0,
            value: 0,
        }),
    )
    .with_key_version(agent.keys(PortId::CPU).version())
    .encode()
}

/// Drives the pair into quarantine: one completed rollover (round 1),
/// then a second flood whose escalation quarantines the channel. Returns
/// the outgoing ADHKD offer issued alongside the quarantine.
fn escalate_to_quarantine(
    c: &mut Controller,
    sw: SwitchId,
    agent: &mut P4AuthSwitch,
) -> Vec<Outgoing> {
    let mut out1 = Vec::new();
    for i in 0..3u64 {
        c.set_now(10_000 + i * 100);
        let (out, _) = c.on_message(sw, &forged(sw, 100 + i as u32));
        out1.extend(out);
    }
    c.set_now(60_000);
    pump(c, sw, agent, out1);
    assert!(!c.defence_quarantined(sw, PortId::CPU));

    let mut out2 = Vec::new();
    let mut events2 = Vec::new();
    for i in 0..3u64 {
        c.set_now(70_000 + i * 100);
        let (out, events) = c.on_message(sw, &forged(sw, 200 + i as u32));
        out2.extend(out);
        events2.extend(events);
    }
    assert!(events2.iter().any(|e| matches!(
        e,
        ControllerEvent::DefenceMitigated {
            kind: MitigationKind::Quarantine,
            ..
        }
    )));
    assert!(c.defence_quarantined(sw, PortId::CPU));
    out2
}

/// The quarantine's exit rollover is lost on the wire, the attacker keeps
/// flooding the locked channel, and `retry_stalled` re-drives the
/// exchange concurrently: the lift must still happen exactly once, leave
/// the reject window clean, and the continued flood must neither escalate
/// further nor block the lift.
#[test]
fn quarantine_lift_survives_racing_rollover_retry() {
    let registry = Arc::new(Registry::with_event_capacity(256));
    let (mut c, sw, mut agent) = defended_pair(&registry);
    let offer = escalate_to_quarantine(&mut c, sw, &mut agent);
    assert_eq!(offer.len(), 1, "quarantine issues exactly one exit offer");
    drop(offer); // lost on the wire

    // The attack continues against the locked channel: every frame is
    // dropped as Quarantined (it never reaches digest verification), and
    // the in-flight rollover keeps the defence loop from piling further
    // mitigations on top.
    for i in 0..5u64 {
        c.set_now(80_000 + i * 100);
        let (out, events) = c.on_message(sw, &forged(sw, 300 + i as u32));
        assert!(
            out.is_empty(),
            "quarantined frames must not provoke traffic"
        );
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::Quarantined,
                ..
            }
        ));
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, ControllerEvent::DefenceMitigated { .. })),
            "no new mitigation while one is in flight"
        );
    }
    assert_eq!(c.stats().defence_mitigations, 2); // rollover + quarantine
    assert!(c.defence_quarantined(sw, PortId::CPU));

    // The stalled exit rollover is re-driven and completes: quarantine
    // lifts exactly once.
    c.set_now(500_000);
    let retried = c.retry_stalled();
    assert_eq!(retried.len(), 1, "stalled exit rollover re-driven");
    c.set_now(550_000);
    pump(&mut c, sw, &mut agent, retried);
    assert!(!c.defence_quarantined(sw, PortId::CPU));

    let snap = registry.snapshot();
    assert_eq!(snap.counter("ctrl_key_rollovers", "controller"), Some(2));
    assert_eq!(
        snap.counter("ctrl_defence_mitigations", "controller"),
        Some(2)
    );
    assert_eq!(
        snap.histogram("defence_mitigation_latency_ns", "controller")
            .unwrap()
            .count,
        2
    );
    assert_eq!(
        snap.counter("auth_reject_quarantined", "controller"),
        Some(5)
    );

    // A frame still claiming the pre-rollover epoch is NoKey after two
    // rollovers retired it — not even a defence signal, since the forger's
    // observations were rolled away.
    c.set_now(590_000);
    let (_, events) = c.on_message(sw, &forged(sw, 399));
    assert!(matches!(
        events[0],
        ControllerEvent::Rejected {
            reason: RejectReason::NoKey,
            ..
        }
    ));

    // The lift cleared the reject window: a single forged frame on the
    // reopened channel (claiming the live epoch) is a plain BadDigest,
    // not a threshold crossing.
    c.set_now(600_000);
    let (out, events) = c.on_message(sw, &forged_current_epoch(sw, 400, &agent));
    assert!(out.is_empty());
    assert!(matches!(
        events[0],
        ControllerEvent::Rejected {
            reason: RejectReason::BadDigest,
            ..
        }
    ));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ControllerEvent::DefenceMitigated { .. })),
        "one reject after the lift must not re-trigger the defence"
    );
    assert_eq!(c.stats().defence_mitigations, 2);
}

/// Key exchange is exempt from the quarantine gate (it is the exit path),
/// but exemption is not trust: a forged kex frame still fails digest
/// verification, and only the genuine exchange lifts the lockdown.
#[test]
fn kex_exemption_under_quarantine_is_verified_not_trusted() {
    let registry = Arc::new(Registry::with_event_capacity(256));
    let (mut c, sw, mut agent) = defended_pair(&registry);
    let offer = escalate_to_quarantine(&mut c, sw, &mut agent);

    // Non-kex traffic is dropped at the gate, before verification.
    c.set_now(80_000);
    let (_, events) = c.on_message(sw, &forged(sw, 300));
    assert!(matches!(
        events[0],
        ControllerEvent::Rejected {
            reason: RejectReason::Quarantined,
            ..
        }
    ));

    // A forged (unsigned) kex frame passes the gate but not the digest
    // check — and the in-flight exit rollover absorbs the reject signal,
    // so the attacker cannot use the exemption to stack mitigations.
    let forged_kex = Message::new(
        sw,
        PortId::CPU,
        SeqNum::new(900),
        Body::KeyExchange(KeyExchange::EakSalt {
            step: EakStep::Salt1,
            salt: 0xdead_beef,
        }),
    )
    .encode();
    c.set_now(81_000);
    let (out, events) = c.on_message(sw, &forged_kex);
    assert!(out.is_empty(), "forged kex must not advance any exchange");
    assert!(matches!(
        events[0],
        ControllerEvent::Rejected {
            reason: RejectReason::BadDigest,
            ..
        }
    ));
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ControllerEvent::DefenceMitigated { .. })),
        "forged kex under quarantine must not trigger a new mitigation"
    );
    assert!(c.defence_quarantined(sw, PortId::CPU), "still locked down");

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("auth_reject_quarantined", "controller"),
        Some(1)
    );
    assert_eq!(
        snap.counter("auth_reject_bad_digest", "controller"),
        Some(7)
    );

    // The genuine exchange — the one the quarantine itself issued — is
    // what lifts it.
    c.set_now(90_000);
    pump(&mut c, sw, &mut agent, offer);
    assert!(!c.defence_quarantined(sw, PortId::CPU));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("ctrl_key_rollovers", "controller"), Some(2));
}
