//! Forged-digest flood against one C-DP channel, and the controller's
//! adaptive defence closing the loop.
//!
//! The adversary (the compromised-switch-OS attacker of §II-A, or anyone
//! who can inject frames onto a C-DP link) floods the controller with
//! well-formed messages claiming to come from one switch, each carrying a
//! guessed digest. Every frame fails verification — P4Auth *detects* the
//! flood for free — and the controller's defence loop turns the
//! detections into a mitigation: it automatically rolls the victim
//! channel's local key (escalating to quarantine if the flood persists),
//! while untouched channels keep flowing.
//!
//! The scenario here drives the controller and two switch agents directly
//! at message level (the simulator-level version, with latency accounting
//! in sim-ns, runs in the systems harness and the `repro -- metrics`
//! snapshot).

use p4auth_controller::{Controller, ControllerConfig, ControllerEvent, DefenceConfig, Outgoing};
use p4auth_core::agent::{AgentConfig, P4AuthSwitch};
use p4auth_dataplane::register::RegisterArray;
use p4auth_primitives::rng::RandomSource;
use p4auth_primitives::{Digest32, Key64};
use p4auth_wire::body::{Body, RegisterOp};
use p4auth_wire::ids::{PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::Message;

/// Generates `n` forged register responses claiming to come from
/// `switch`, sequence numbers starting at `seq_base`, each with a guessed
/// digest (the adversary cannot compute real ones — §VIII bounds the
/// guess success probability at `2^-32` per message).
pub fn forged_acks(
    n: u32,
    switch: SwitchId,
    seq_base: u32,
    rng: &mut dyn RandomSource,
) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut msg = Message::new(
                switch,
                PortId::CPU,
                SeqNum::new(seq_base + i),
                Body::Register(RegisterOp::Ack {
                    reg: RegId::new(0xf100d),
                    index: 0,
                    value: rng.next_u64(),
                }),
            );
            msg.header_mut().digest = Digest32::new(rng.next_u64() as u32);
            msg.encode()
        })
        .collect()
}

/// Outcome of [`run_flood_defence_scenario`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FloodDefenceReport {
    /// Forged frames injected on the victim channel.
    pub frames_injected: u32,
    /// How many the controller rejected as digest failures.
    pub digest_rejects: u64,
    /// Mitigations the defence loop issued (hysteresis ⇒ 1 per crossing).
    pub mitigations: u64,
    /// Whether the victim channel's local key was rolled automatically.
    pub key_rolled: bool,
    /// Whether the victim channel still works after the rollover (a
    /// legitimate write round-trips).
    pub victim_recovered: bool,
    /// Whether the untouched channel kept flowing throughout the attack.
    pub clean_channel_unaffected: bool,
}

const VICTIM: SwitchId = SwitchId::new(1);
const CLEAN: SwitchId = SwitchId::new(2);
const REG: RegId = RegId::new(4100);

/// Ping-pongs controller output through the matching agent until both
/// sides go quiet.
fn pump(
    c: &mut Controller,
    agents: &mut [(SwitchId, &mut P4AuthSwitch)],
    mut pending: Vec<Outgoing>,
) -> Vec<ControllerEvent> {
    let mut events = Vec::new();
    let mut rounds = 0;
    while !pending.is_empty() {
        rounds += 1;
        assert!(rounds < 64, "exchange did not converge");
        let mut next = Vec::new();
        for o in pending {
            let (id, agent) = agents
                .iter_mut()
                .find(|(id, _)| *id == o.to)
                .expect("outgoing addressed to a known agent");
            let output = agent.on_packet(0, PortId::CPU, &o.bytes);
            for (_, bytes) in output.outputs {
                let (more, evs) = c.on_message(*id, &bytes);
                next.extend(more);
                events.extend(evs);
            }
        }
        pending = next;
    }
    events
}

fn build_agent(id: SwitchId, k_seed: Key64) -> P4AuthSwitch {
    let config = AgentConfig::new(id, 2, k_seed).map_register(REG, "flood_reg");
    let mut sw = P4AuthSwitch::new(config, None);
    sw.chassis_mut()
        .declare_register(RegisterArray::new("flood_reg", 4, 64));
    sw
}

/// Whether a legitimate controller write to `sw` round-trips to an ack.
fn write_round_trips(
    c: &mut Controller,
    id: SwitchId,
    agent: &mut P4AuthSwitch,
    value: u64,
) -> bool {
    let o = c.write_register(id, REG, 0, value);
    let output = agent.on_packet(0, PortId::CPU, &o.bytes);
    let mut acked = false;
    for (_, bytes) in output.outputs {
        let (_, events) = c.on_message(id, &bytes);
        acked |= events
            .iter()
            .any(|e| matches!(e, ControllerEvent::WriteAcked { switch, .. } if *switch == id));
    }
    acked
}

/// Runs the flood-vs-defence scenario: bootstrap two channels, flood one
/// with `frames` forged digests, let the defence loop roll the victim's
/// key, and verify the clean channel never noticed.
pub fn run_flood_defence_scenario(frames: u32, rng: &mut dyn RandomSource) -> FloodDefenceReport {
    let mut c = Controller::new(ControllerConfig::default());
    c.register_switch(VICTIM, Key64::new(0x71c7_1a5e));
    c.register_switch(CLEAN, Key64::new(0xc1ea_55ed));
    c.enable_defence(DefenceConfig {
        window_ns: 1_000_000,
        reject_threshold: 4,
        escalation_window_ns: 100_000_000,
    });
    let mut victim = build_agent(VICTIM, Key64::new(0x71c7_1a5e));
    let mut clean = build_agent(CLEAN, Key64::new(0xc1ea_55ed));

    // Bootstrap both local keys.
    for id in [VICTIM, CLEAN] {
        let init = c.local_key_init(id);
        let agents: &mut [(SwitchId, &mut P4AuthSwitch)] =
            &mut [(VICTIM, &mut victim), (CLEAN, &mut clean)];
        pump(&mut c, agents, init);
        assert!(c.has_local_key(id), "bootstrap failed for {id}");
    }

    // The attack: forged digests on the victim channel, interleaved with
    // legitimate traffic on the clean channel.
    let mut mitigations = 0u64;
    let mut rollover_msgs = Vec::new();
    let mut clean_ok = true;
    for (i, frame) in forged_acks(frames, VICTIM, 10_000, rng).iter().enumerate() {
        c.set_now(1_000_000 + i as u64 * 1_000);
        let (out, events) = c.on_message(VICTIM, frame);
        rollover_msgs.extend(out);
        mitigations += events
            .iter()
            .filter(|e| matches!(e, ControllerEvent::DefenceMitigated { .. }))
            .count() as u64;
        // The clean channel keeps flowing mid-attack.
        if i % 4 == 0 {
            clean_ok &= write_round_trips(&mut c, CLEAN, &mut clean, i as u64);
        }
    }
    let digest_rejects = c.stats().rejected;

    // Deliver the defence-initiated ADHKD exchange; the victim's key rolls.
    let events = {
        let agents: &mut [(SwitchId, &mut P4AuthSwitch)] =
            &mut [(VICTIM, &mut victim), (CLEAN, &mut clean)];
        pump(&mut c, agents, rollover_msgs)
    };
    let key_rolled = events
        .iter()
        .any(|e| matches!(e, ControllerEvent::LocalKeyRolled(sw) if *sw == VICTIM));

    let victim_recovered = write_round_trips(&mut c, VICTIM, &mut victim, 42);
    clean_ok &= write_round_trips(&mut c, CLEAN, &mut clean, 43);

    FloodDefenceReport {
        frames_injected: frames,
        digest_rejects,
        mitigations,
        key_rolled,
        victim_recovered,
        clean_channel_unaffected: clean_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_primitives::rng::SplitMix64;

    #[test]
    fn flood_triggers_auto_rollover_and_spares_clean_channel() {
        let mut rng = SplitMix64::new(0xf100d);
        let report = run_flood_defence_scenario(20, &mut rng);
        assert_eq!(report.frames_injected, 20);
        assert!(report.digest_rejects >= 20);
        // Hysteresis: one threshold crossing, one mitigation.
        assert_eq!(report.mitigations, 1);
        assert!(report.key_rolled, "controller must roll the victim's key");
        assert!(report.victim_recovered);
        assert!(report.clean_channel_unaffected);
    }

    #[test]
    fn below_threshold_flood_changes_nothing() {
        let mut rng = SplitMix64::new(7);
        let report = run_flood_defence_scenario(3, &mut rng);
        assert_eq!(report.mitigations, 0);
        assert!(!report.key_rolled);
        assert!(report.clean_channel_unaffected);
    }

    #[test]
    fn forged_acks_decode_but_never_verify() {
        let mut rng = SplitMix64::new(9);
        let mac = p4auth_primitives::mac::HalfSipHashMac::default();
        for f in forged_acks(32, SwitchId::new(3), 1, &mut rng) {
            let msg = Message::decode(&f).unwrap();
            assert!(!msg.verify(&mac, Key64::new(0x5eed)));
        }
    }
}
