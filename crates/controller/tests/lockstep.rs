//! A replica and an agent in lockstep with a model of their channel.
//!
//! One [`ReplicaSet`] (one replica) and one [`P4AuthSwitch`] share a local
//! key. Random interleavings of genuine register reads and writes,
//! forged, replayed, reflected, truncated and bit-flipped frames, lost
//! frames and local-key rollovers go through
//! `ReplicaSet::on_message` and `P4AuthSwitch::on_packet`. Beside them
//! runs the model `core/tests/channel_model.rs` holds `ChannelEnd` to,
//! once per end: the current and previous key generation with the ±1
//! rule, the last sequence number accepted from each peer, and (for the
//! controller) the requests awaiting an answer.
//!
//! After every step:
//!
//! * both ends give the model's verdict and [`RejectReason`], an accepted
//!   request touches the register the model says, and an accepted answer
//!   raises the controller event the model says;
//! * nothing panics;
//! * a rejected frame moves no key version, no register and no
//!   outstanding request, and the next frame either end seals carries
//!   the sequence number the model expects. A moved replay window shows
//!   as a later verdict the model does not give.
//!
//! Rollover legs are delivered whole and in order (a lost or forged leg
//! is `tests/failure_injection.rs`'s), and are kept for replay.
//!
//! Not covered yet: a switch restart in the middle of the sequence. It
//! needs the agent reboot verb (ROADMAP item 17), which does not exist;
//! it belongs here as one more input once it does.

use p4auth_controller::{ControllerConfig, ControllerEvent, ReplicaSet};
use p4auth_core::agent::{AgentConfig, AgentEvent, P4AuthSwitch};
use p4auth_core::auth::RejectReason;
use p4auth_dataplane::register::RegisterArray;
use p4auth_primitives::mac::HalfSipHashMac;
use p4auth_primitives::Key64;
use p4auth_wire::body::{Body, KexContext, KeyExchange, NackReason, RegisterOp};
use p4auth_wire::ids::{KeyVersion, PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::{verify_frame, Message};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const SW: SwitchId = SwitchId::new(1);
const SEED: Key64 = Key64::new(0x5eed);
const REG: RegId = RegId::new(1);
const REG_NAME: &str = "r";
/// Register entries; requests also name indices past the end.
const REG_LEN: u32 = 8;

/// One end's key slot: the current generation and the one a rollover
/// kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Keys {
    version: u8,
    current: Key64,
    previous: Option<Key64>,
}

impl Keys {
    /// The ±1 rule.
    fn select(&self, version: KeyVersion) -> Option<Key64> {
        let v = version.value();
        if v == self.version {
            Some(self.current)
        } else if v.wrapping_add(1) == self.version {
            self.previous
        } else {
            None
        }
    }

    fn roll(&mut self, key: Key64) {
        self.previous = Some(self.current);
        self.current = key;
        self.version = self.version.wrapping_add(1);
    }
}

/// One end of the channel in the model.
struct End {
    keys: Keys,
    /// Last sequence number accepted per peer.
    last: HashMap<SwitchId, SeqNum>,
    /// Last sequence number this end sealed a frame with.
    sent: u32,
}

impl End {
    /// `ChannelEnd::open` as the model has it: the key rule, the digest,
    /// then (if `windowed`) the replay window, which only an accepted
    /// frame moves.
    fn open(
        &mut self,
        peer: SwitchId,
        msg: &Message,
        bytes: &[u8],
        windowed: bool,
    ) -> Result<(), RejectReason> {
        let key = match msg.body() {
            Body::KeyExchange(KeyExchange::EakSalt { .. }) => Some(SEED),
            // The model holds no `K_auth`. Only a tampered frame decodes
            // as a LocalInit leg here (no genuine one is replayed), and
            // the end holds `K_auth`, so its digest is what fails.
            Body::KeyExchange(KeyExchange::Adhkd {
                context: KexContext::LocalInit,
                ..
            }) => return Err(RejectReason::BadDigest),
            _ => self.keys.select(msg.header().key_version),
        };
        let key = key.ok_or(RejectReason::NoKey)?;
        if !verify_frame(&HalfSipHashMac::default(), key, bytes) {
            return Err(RejectReason::BadDigest);
        }
        if windowed {
            let seq = msg.header().seq_num;
            match self.last.get(&peer) {
                Some(&last) if seq.value() <= last.value() => {
                    return Err(RejectReason::Replayed {
                        last_accepted: last,
                    });
                }
                _ => {
                    self.last.insert(peer, seq);
                }
            }
        }
        Ok(())
    }
}

/// What a request the controller sent was.
#[derive(Clone, Copy, Debug)]
struct Pending {
    index: u32,
    is_write: bool,
}

struct Model {
    agent: End,
    ctrl: End,
    registers: [u64; REG_LEN as usize],
    outstanding: BTreeMap<u32, Pending>,
}

/// A verdict on one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// Not authenticated at all: the end ignores what it does not serve.
    Ignored,
    Accepted,
    Rejected(RejectReason),
}

impl Model {
    /// The agent's verdict on `bytes` arriving on its CPU port.
    fn agent_open(&mut self, bytes: &[u8]) -> Verdict {
        let Ok(msg) = Message::decode(bytes) else {
            // The CPU port is the C-DP channel, which carries no data
            // traffic: a frame that does not decode is rejected there as
            // the controller rejects it.
            return Verdict::Rejected(RejectReason::Malformed);
        };
        let served = matches!(
            msg.body(),
            Body::Register(RegisterOp::ReadReq { .. } | RegisterOp::WriteReq { .. })
                | Body::KeyExchange(_)
        );
        if !served {
            return Verdict::Ignored;
        }
        match self.agent.open(msg.header().sender, &msg, bytes, true) {
            Ok(()) => Verdict::Accepted,
            Err(reason) => Verdict::Rejected(reason),
        }
    }

    /// The controller's verdict on `bytes` from `SW`; responses are
    /// matched to requests, not windowed.
    fn ctrl_open(&mut self, bytes: &[u8]) -> (Verdict, Option<Message>) {
        let Ok(msg) = Message::decode(bytes) else {
            return (Verdict::Rejected(RejectReason::Malformed), None);
        };
        let windowed = !matches!(msg.body(), Body::Register(_));
        match self.ctrl.open(SW, &msg, bytes, windowed) {
            Ok(()) => (Verdict::Accepted, Some(msg)),
            Err(reason) => (Verdict::Rejected(reason), None),
        }
    }

    /// The events an accepted, non-rollover frame raises at the
    /// controller.
    fn ctrl_events(&mut self, msg: &Message) -> Vec<ControllerEvent> {
        let seq = msg.header().seq_num.value();
        match *msg.body() {
            Body::Register(RegisterOp::ReadReq { .. } | RegisterOp::WriteReq { .. }) => vec![],
            Body::Register(op) => {
                let Some(p) = self.outstanding.remove(&seq) else {
                    return vec![ControllerEvent::UnmatchedResponse(SW)];
                };
                vec![match op {
                    RegisterOp::Ack { .. } if p.is_write => ControllerEvent::WriteAcked {
                        switch: SW,
                        reg: REG,
                        index: p.index,
                    },
                    RegisterOp::Ack { value, .. } => ControllerEvent::ValueRead {
                        switch: SW,
                        reg: REG,
                        index: p.index,
                        value,
                    },
                    RegisterOp::Nack { reason, .. } => {
                        ControllerEvent::Nacked { switch: SW, reason }
                    }
                    _ => unreachable!("requests matched above"),
                }]
            }
            Body::Alert(alert) => vec![ControllerEvent::AlertReceived {
                switch: SW,
                kind: alert.kind,
            }],
            Body::InNetwork(_) => vec![],
            Body::KeyExchange(_) => panic!("model: a key-exchange leg accepted outside a rollover"),
        }
    }
}

/// The agent's verdict as its events report it.
fn agent_verdict(events: &[AgentEvent]) -> Verdict {
    events
        .iter()
        .find_map(|e| match e {
            AgentEvent::VerifiedOk => Some(Verdict::Accepted),
            AgentEvent::Rejected(reason) => Some(Verdict::Rejected(*reason)),
            _ => None,
        })
        .unwrap_or(Verdict::Ignored)
}

/// The controller's verdict as its events report it.
fn ctrl_verdict(events: &[ControllerEvent]) -> Verdict {
    events
        .iter()
        .find_map(|e| match e {
            ControllerEvent::Rejected { reason, .. } => Some(Verdict::Rejected(*reason)),
            _ => None,
        })
        .unwrap_or(Verdict::Accepted)
}

#[derive(Clone, Debug)]
enum Op {
    Read {
        index: u32,
    },
    Write {
        index: u32,
        value: u64,
    },
    /// Delivers an in-flight frame toward the agent (`to_agent`) or the
    /// controller as sent.
    Deliver {
        to_agent: bool,
        pick: usize,
    },
    /// Drops an in-flight frame.
    Lose {
        to_agent: bool,
        pick: usize,
    },
    /// Delivers a frame that end accepted or ignored before, again.
    Replay {
        to_agent: bool,
        pick: usize,
    },
    /// Delivers a copy of a frame in flight *from* that end back to it.
    Reflect {
        to_agent: bool,
        pick: usize,
    },
    /// Takes an in-flight frame and delivers its first `keep` bytes.
    Truncate {
        to_agent: bool,
        pick: usize,
        keep: usize,
    },
    /// Takes an in-flight frame and delivers it with one bit flipped.
    Flip {
        to_agent: bool,
        pick: usize,
        bit: usize,
    },
    /// A frame sealed under a key neither end ever held, tagged `back`
    /// generations before the current one.
    Forge {
        to_agent: bool,
        seq: u32,
        key: u64,
        back: u8,
    },
    /// A local-key rollover, run to completion.
    Rollover,
}

fn op() -> impl Strategy<Value = Op> {
    let side = || any::<bool>();
    prop_oneof![
        (0u32..REG_LEN + 2).prop_map(|index| Op::Read { index }),
        (0u32..REG_LEN + 2, any::<u64>()).prop_map(|(index, value)| Op::Write { index, value }),
        (side(), any::<usize>()).prop_map(|(to_agent, pick)| Op::Deliver { to_agent, pick }),
        (side(), any::<usize>()).prop_map(|(to_agent, pick)| Op::Deliver { to_agent, pick }),
        (side(), any::<usize>()).prop_map(|(to_agent, pick)| Op::Deliver { to_agent, pick }),
        (side(), any::<usize>()).prop_map(|(to_agent, pick)| Op::Lose { to_agent, pick }),
        (side(), any::<usize>()).prop_map(|(to_agent, pick)| Op::Replay { to_agent, pick }),
        (side(), any::<usize>()).prop_map(|(to_agent, pick)| Op::Reflect { to_agent, pick }),
        (side(), any::<usize>(), 0usize..48).prop_map(|(to_agent, pick, keep)| Op::Truncate {
            to_agent,
            pick,
            keep
        }),
        (side(), any::<usize>(), any::<usize>()).prop_map(|(to_agent, pick, bit)| Op::Flip {
            to_agent,
            pick,
            bit
        }),
        (side(), 0u32..64, 1u64..1 << 40, 0u8..3).prop_map(|(to_agent, seq, key, back)| {
            Op::Forge {
                to_agent,
                seq,
                key: key << 20,
                back,
            }
        }),
        Just(Op::Rollover),
    ]
}

/// Everything a rejected frame must leave alone.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    agent_keys: (KeyVersion, Option<Key64>),
    ctrl_keys: Option<(Key64, KeyVersion)>,
    registers: Vec<u64>,
    outstanding: u32,
}

struct Harness {
    set: ReplicaSet,
    agent: P4AuthSwitch,
    model: Model,
    now_ns: u64,
    to_agent: Vec<Vec<u8>>,
    to_ctrl: Vec<Vec<u8>>,
    /// Frames each end has been handed, for replays.
    seen_by_agent: Vec<Vec<u8>>,
    seen_by_ctrl: Vec<Vec<u8>>,
}

impl Harness {
    /// A replica and an agent with `K_local` established, and the model
    /// of where that leaves them.
    fn new() -> Harness {
        let mut set = ReplicaSet::new(1, ControllerConfig::default(), &[(SW, SEED)]);
        let mut agent = P4AuthSwitch::new(
            AgentConfig::new(SW, 2, SEED).map_register(REG, REG_NAME),
            None,
        );
        agent
            .chassis_mut()
            .declare_register(RegisterArray::new(REG_NAME, REG_LEN, 64));
        let mut to_agent: Vec<Vec<u8>> = set
            .local_key_init(0, SW)
            .into_iter()
            .map(|o| o.bytes)
            .collect();
        let (mut agent_last, mut ctrl_last) = (HashMap::new(), HashMap::new());
        let mut agent_sent = 0;
        while let Some(frame) = to_agent.pop() {
            let msg = Message::decode(&frame).unwrap();
            agent_last.insert(msg.header().sender, msg.header().seq_num);
            for (_, reply) in agent.on_packet(0, PortId::CPU, &frame).outputs {
                let seq = Message::decode(&reply).unwrap().header().seq_num;
                ctrl_last.insert(SW, seq);
                agent_sent = seq.value();
                to_agent.extend(set.on_message(0, SW, &reply).0.into_iter().map(|o| o.bytes));
            }
        }
        assert!(set.has_local_key(SW));
        let slot = agent.keys(PortId::CPU);
        let keys = Keys {
            version: slot.version().value(),
            current: slot.current().unwrap(),
            previous: None,
        };
        let ctrl_sent = agent_last[&SwitchId::CONTROLLER].value();
        let model = Model {
            agent: End {
                keys,
                last: agent_last,
                sent: agent_sent,
            },
            ctrl: End {
                keys,
                last: ctrl_last,
                sent: ctrl_sent,
            },
            registers: [0; REG_LEN as usize],
            outstanding: BTreeMap::new(),
        };
        let h = Harness {
            set,
            agent,
            model,
            now_ns: 0,
            to_agent: Vec::new(),
            to_ctrl: Vec::new(),
            seen_by_agent: Vec::new(),
            seen_by_ctrl: Vec::new(),
        };
        h.check_keys();
        h
    }

    fn observed(&self) -> Observed {
        let slot = self.agent.keys(PortId::CPU);
        let reg = self.agent.chassis().register(REG_NAME).unwrap();
        Observed {
            agent_keys: (slot.version(), slot.current()),
            ctrl_keys: self.set.core(SW).local_key_material(SW),
            registers: (0..REG_LEN).map(|i| reg.read(i).unwrap()).collect(),
            outstanding: self.set.core(SW).outstanding(SW),
        }
    }

    /// Both ends' key slots are the model's.
    fn check_keys(&self) {
        let slot = self.agent.keys(PortId::CPU);
        let a = &self.model.agent.keys;
        assert_eq!(
            (slot.version().value(), slot.current()),
            (a.version, Some(a.current))
        );
        let c = &self.model.ctrl.keys;
        assert_eq!(
            self.set.core(SW).local_key_material(SW),
            Some((c.current, KeyVersion::new(c.version)))
        );
    }

    /// A request the controller issued: the next sequence number, and
    /// now awaiting an answer.
    fn issued(&mut self, bytes: Vec<u8>, pending: Pending) {
        let seq = Message::decode(&bytes).unwrap().header().seq_num.value();
        self.model.ctrl.sent += 1;
        assert_eq!(
            seq, self.model.ctrl.sent,
            "the controller's outbound sequence moved"
        );
        self.model.outstanding.insert(seq, pending);
        self.to_agent.push(bytes);
    }

    /// Hands `bytes` to the agent and checks its verdict and effects.
    fn agent_receives(&mut self, bytes: Vec<u8>) {
        self.now_ns += 1_000;
        let before = self.observed();
        let want = self.model.agent_open(&bytes);
        let out = self.agent.on_packet(self.now_ns, PortId::CPU, &bytes);
        let got = agent_verdict(&out.events);
        assert_eq!(got, want, "agent verdict on {bytes:02x?}");
        match want {
            Verdict::Accepted => {
                let msg = Message::decode(&bytes).unwrap();
                let request_seq = msg.header().seq_num;
                let expect_reply = match *msg.body() {
                    Body::Register(RegisterOp::ReadReq { index, .. }) if index < REG_LEN => {
                        let value = self.model.registers[index as usize];
                        assert!(out.events.iter().any(|e| matches!(e,
                            AgentEvent::RegisterRead { index: i, value: v, .. } if *i == index && *v == value)));
                        RegisterOp::Ack {
                            reg: REG,
                            index,
                            value,
                        }
                    }
                    Body::Register(RegisterOp::WriteReq { index, value, .. })
                        if index < REG_LEN =>
                    {
                        self.model.registers[index as usize] = value;
                        RegisterOp::Ack {
                            reg: REG,
                            index,
                            value: 0,
                        }
                    }
                    Body::Register(
                        RegisterOp::ReadReq { reg, index }
                        | RegisterOp::WriteReq { reg, index, .. },
                    ) => RegisterOp::Nack {
                        reg,
                        index,
                        reason: NackReason::IndexOutOfRange,
                    },
                    _ => panic!("model: a key-exchange leg accepted outside a rollover"),
                };
                let [(_, reply)] = &out.outputs[..] else {
                    panic!("an accepted request is answered once: {:?}", out.outputs);
                };
                let reply_msg = Message::decode(reply).unwrap();
                assert_eq!(
                    reply_msg.header().seq_num,
                    request_seq,
                    "a reply echoes its request"
                );
                assert_eq!(*reply_msg.body(), Body::Register(expect_reply));
            }
            Verdict::Rejected(RejectReason::Malformed) => {
                assert!(
                    out.outputs.is_empty(),
                    "an undecodable frame raised an alert: {:?}",
                    out.outputs
                );
                assert_eq!(
                    self.observed(),
                    before,
                    "a rejected frame changed the agent or controller"
                );
            }
            Verdict::Rejected(_) | Verdict::Ignored => assert_eq!(
                self.observed(),
                before,
                "a rejected or ignored frame changed the agent or controller"
            ),
        }
        for (port, frame) in out.outputs {
            assert_eq!(port, PortId::CPU);
            let msg = Message::decode(&frame).unwrap();
            if let Body::Alert(_) = msg.body() {
                self.model.agent.sent += 1;
                assert_eq!(
                    msg.header().seq_num.value(),
                    self.model.agent.sent,
                    "the agent's outbound sequence moved"
                );
            }
            self.to_ctrl.push(frame);
        }
        self.seen_by_agent.push(bytes);
    }

    /// Hands `bytes` to the controller and checks its verdict and events.
    fn ctrl_receives(&mut self, bytes: Vec<u8>) {
        self.now_ns += 1_000;
        let before = self.observed();
        let (want, msg) = self.model.ctrl_open(&bytes);
        let (out, events) = self.set.on_message(self.now_ns, SW, &bytes);
        assert_eq!(
            ctrl_verdict(&events),
            want,
            "controller verdict on {bytes:02x?}: {events:?}"
        );
        match msg {
            Some(msg) => assert_eq!(events, self.model.ctrl_events(&msg)),
            None => assert_eq!(
                self.observed(),
                before,
                "a rejected frame changed the agent or controller"
            ),
        }
        assert!(
            out.is_empty(),
            "no defence runs, so the controller answers nothing: {out:?}"
        );
        self.seen_by_ctrl.push(bytes);
    }

    /// Rolls the local key: every leg delivered in order, each accepted,
    /// each end's model rolled when that end reports its roll.
    fn rollover(&mut self) {
        self.now_ns += 1_000;
        self.set.set_now(self.now_ns);
        let mut legs: Vec<Vec<u8>> = self
            .set
            .core_mut(SW)
            .local_key_update(SW)
            .into_iter()
            .map(|o| o.bytes)
            .collect();
        self.model.ctrl.sent += legs.len() as u32;
        let (mut agent_rolled, mut ctrl_rolled) = (false, false);
        while let Some(leg) = legs.pop() {
            assert_eq!(self.model.agent_open(&leg), Verdict::Accepted);
            let out = self.agent.on_packet(self.now_ns, PortId::CPU, &leg);
            assert_eq!(agent_verdict(&out.events), Verdict::Accepted);
            if out.has_event(&AgentEvent::KeyRolled { port: PortId::CPU }) {
                let slot = self.agent.keys(PortId::CPU);
                self.model.agent.keys.roll(slot.current().unwrap());
                agent_rolled = true;
            }
            self.seen_by_agent.push(leg);
            for (_, answer) in out.outputs {
                self.model.agent.sent += 1;
                let (verdict, _) = self.model.ctrl_open(&answer);
                assert_eq!(verdict, Verdict::Accepted);
                let (next, events) = self.set.on_message(self.now_ns, SW, &answer);
                assert_eq!(ctrl_verdict(&events), Verdict::Accepted, "{events:?}");
                if events.contains(&ControllerEvent::LocalKeyRolled(SW)) {
                    let (key, _) = self.set.core(SW).local_key_material(SW).unwrap();
                    self.model.ctrl.keys.roll(key);
                    ctrl_rolled = true;
                }
                self.model.ctrl.sent += next.len() as u32;
                legs.extend(next.into_iter().map(|o| o.bytes));
                self.seen_by_ctrl.push(answer);
            }
        }
        assert!(
            agent_rolled && ctrl_rolled,
            "a rollover completes on both ends"
        );
        self.check_keys();
    }

    fn step(&mut self, op: Op) {
        let pick = |q: &mut Vec<Vec<u8>>, i: usize| (!q.is_empty()).then(|| q.remove(i % q.len()));
        match op {
            Op::Read { index } => {
                let out = self.set.read_register(self.now_ns, SW, REG, index);
                self.issued(
                    out.bytes,
                    Pending {
                        index,
                        is_write: false,
                    },
                );
            }
            Op::Write { index, value } => {
                let out = self.set.write_register(self.now_ns, SW, REG, index, value);
                self.issued(
                    out.bytes,
                    Pending {
                        index,
                        is_write: true,
                    },
                );
            }
            Op::Deliver {
                to_agent: true,
                pick: i,
            } => {
                if let Some(f) = pick(&mut self.to_agent, i) {
                    self.agent_receives(f);
                }
            }
            Op::Deliver {
                to_agent: false,
                pick: i,
            } => {
                if let Some(f) = pick(&mut self.to_ctrl, i) {
                    self.ctrl_receives(f);
                }
            }
            Op::Lose { to_agent, pick: i } => {
                let q = if to_agent {
                    &mut self.to_agent
                } else {
                    &mut self.to_ctrl
                };
                pick(q, i);
            }
            Op::Replay { to_agent, pick: i } => {
                let seen = if to_agent {
                    &self.seen_by_agent
                } else {
                    &self.seen_by_ctrl
                };
                if !seen.is_empty() {
                    let f = seen[i % seen.len()].clone();
                    self.deliver(to_agent, f);
                }
            }
            Op::Reflect { to_agent, pick: i } => {
                let from = if to_agent {
                    &self.to_ctrl
                } else {
                    &self.to_agent
                };
                if !from.is_empty() {
                    let f = from[i % from.len()].clone();
                    self.deliver(to_agent, f);
                }
            }
            Op::Truncate {
                to_agent,
                pick: i,
                keep,
            } => {
                let q = if to_agent {
                    &mut self.to_agent
                } else {
                    &mut self.to_ctrl
                };
                if let Some(mut f) = pick(q, i) {
                    f.truncate(keep % f.len());
                    self.deliver(to_agent, f);
                }
            }
            Op::Flip {
                to_agent,
                pick: i,
                bit,
            } => {
                let q = if to_agent {
                    &mut self.to_agent
                } else {
                    &mut self.to_ctrl
                };
                if let Some(mut f) = pick(q, i) {
                    let bit = bit % (f.len() * 8);
                    f[bit / 8] ^= 1 << (bit % 8);
                    self.deliver(to_agent, f);
                }
            }
            Op::Forge {
                to_agent,
                seq,
                key,
                back,
            } => {
                let keys = if to_agent {
                    self.model.agent.keys
                } else {
                    self.model.ctrl.keys
                };
                let version = KeyVersion::new(keys.version.wrapping_sub(back));
                let msg = if to_agent {
                    Message::register_request(
                        SwitchId::CONTROLLER,
                        SeqNum::new(seq),
                        RegisterOp::WriteReq {
                            reg: REG,
                            index: 0,
                            value: 0xbad,
                        },
                    )
                } else {
                    // An answer to a request the controller may well be
                    // awaiting.
                    let seq = self.model.outstanding.keys().next().copied().unwrap_or(seq);
                    Message::new(
                        SW,
                        PortId::CPU,
                        SeqNum::new(seq),
                        Body::Register(RegisterOp::Ack {
                            reg: REG,
                            index: 0,
                            value: 0xbad,
                        }),
                    )
                };
                let f = msg
                    .with_key_version(version)
                    .sealed(&HalfSipHashMac::default(), Key64::new(key))
                    .encode();
                self.deliver(to_agent, f);
            }
            Op::Rollover => self.rollover(),
        }
    }

    fn deliver(&mut self, to_agent: bool, frame: Vec<u8>) {
        if to_agent {
            self.agent_receives(frame);
        } else {
            self.ctrl_receives(frame);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn replica_and_agent_match_the_model(ops in proptest::collection::vec(op(), 1..80)) {
        let mut h = Harness::new();
        for op in ops {
            h.step(op);
        }
        h.check_keys();
    }
}
