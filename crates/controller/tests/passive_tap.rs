//! The passive tap (DESIGN §3b): an observer that recorded one local-key
//! initialization holds the live `K_local`.
//!
//! The test keeps every frame `local_key_init` puts on the controller's
//! channel, in both directions, and derives the key from those frames and
//! public code alone: the ADHKD offer's and answer's public keys give the
//! pre-master secret as `(PK1 & PK2) ⊕ P` (the bare modified DH's
//! algebra, `primitives::dh`), and the paper's KDF over the two half-salts
//! gives the master key. It then seals a register write under that key
//! and the agent accepts it.
//!
//! This pins the finding as it stands. A derivation that chains the key
//! through a secret the wire never carries (ROADMAP 15 (b)) makes both
//! assertions fail, and must then turn this test around on purpose.

use p4auth_controller::{Controller, ControllerConfig};
use p4auth_core::agent::{AgentConfig, AgentEvent, P4AuthSwitch};
use p4auth_dataplane::register::RegisterArray;
use p4auth_primitives::dh::DhParams;
use p4auth_primitives::kdf::{Kdf, KdfConfig};
use p4auth_primitives::mac::HalfSipHashMac;
use p4auth_primitives::{Key64, Salt64};
use p4auth_wire::body::{AdhkdRole, Body, KexContext, KeyExchange, RegisterOp};
use p4auth_wire::ids::{PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::Message;

const SW: SwitchId = SwitchId::new(1);
const REG: RegId = RegId::new(7);

/// The `(public_key, salt)` of the recorded local-init ADHKD message
/// playing `role`.
fn adhkd(recorded: &[Message], role: AdhkdRole) -> (u64, u32) {
    recorded
        .iter()
        .find_map(|m| match *m.body() {
            Body::KeyExchange(KeyExchange::Adhkd {
                role: r,
                context: KexContext::LocalInit,
                public_key,
                salt,
            }) if r == role => Some((public_key, salt)),
            _ => None,
        })
        .expect("the exchange crossed the channel")
}

#[test]
fn recorded_local_key_init_yields_the_live_key() {
    let k_seed = Key64::new(0x5eed_0001);
    let mut controller = Controller::new(ControllerConfig::default());
    controller.register_switch(SW, k_seed);
    let config = AgentConfig::new(SW, 2, k_seed).map_register(REG, "r");
    let mut agent = P4AuthSwitch::new(config, None);
    agent
        .chassis_mut()
        .declare_register(RegisterArray::new("r", 4, 64));

    // Every frame of the initialization, as a tap on the C-DP link sees it.
    let mut wire: Vec<Vec<u8>> = Vec::new();
    let mut to_agent: Vec<Vec<u8>> = controller
        .local_key_init(SW)
        .into_iter()
        .map(|o| o.bytes)
        .collect();
    while let Some(frame) = to_agent.pop() {
        wire.push(frame.clone());
        for (_, reply) in agent.on_packet(0, PortId::CPU, &frame).outputs {
            wire.push(reply.clone());
            let (more, _) = controller.on_message(SW, &reply);
            to_agent.extend(more.into_iter().map(|o| o.bytes));
        }
    }
    assert!(controller.has_local_key(SW), "initialization completed");
    let recorded: Vec<Message> = wire
        .iter()
        .map(|f| Message::decode(f).expect("a P4Auth frame"))
        .collect();

    // The key, from the recording and public code.
    let (pk1, s1) = adhkd(&recorded, AdhkdRole::Offer);
    let (pk2, s2) = adhkd(&recorded, AdhkdRole::Answer);
    let pre_master = (pk1 & pk2) ^ DhParams::recommended().p();
    let derived =
        Kdf::new(KdfConfig::PAPER).derive(Key64::new(pre_master), Salt64::combine(s1, s2));
    let (live, _) = controller
        .local_key_material(SW)
        .expect("the controller holds K_local");
    assert_eq!(derived, live, "the recorded exchange yields K_local");

    // A write sealed under the derived key. The observer reads the key
    // version and the sequence number off one more request it sees.
    let seen = controller.read_register(SW, REG, 0);
    agent.on_packet(1, PortId::CPU, &seen.bytes);
    let header = *Message::decode(&seen.bytes).expect("a request").header();
    let forged = Message::register_request(
        SwitchId::CONTROLLER,
        SeqNum::new(header.seq_num.value() + 1),
        RegisterOp::WriteReq {
            reg: REG,
            index: 0,
            value: 0xbad,
        },
    )
    .with_key_version(header.key_version)
    .encode_sealed(&HalfSipHashMac::default(), derived);
    let events = agent.on_packet(2, PortId::CPU, &forged).events;
    assert!(
        events.contains(&AgentEvent::RegisterWritten {
            name: "r".into(),
            index: 0,
            value: 0xbad,
        }),
        "the agent accepted the forged write: {events:?}"
    );
}
