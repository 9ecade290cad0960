//! `ChannelEnd` against a reference model of the authenticated channel:
//! key generations, each with its own outbound counter from 1 and its own
//! replay window per sender, starting empty; the current and previous
//! generation with the ±1 rule; an install that starts afresh at the
//! initial version and a rollover that keeps one generation back; and a
//! counter that fails closed at `u32::MAX`. Random operation sequences go
//! through both; every verdict, reject reason and sealed frame must match,
//! the two must hold the same state after every step, and a rejected open
//! must leave every counter, window and version as it was.

use p4auth_core::auth::RejectReason;
use p4auth_core::channel::ChannelEnd;
use p4auth_primitives::mac::{HalfSipHashMac, Mac};
use p4auth_primitives::Key64;
use p4auth_wire::body::RegisterOp;
use p4auth_wire::ids::{KeyVersion, RegId, SeqNum, SwitchId};
use p4auth_wire::{verify_frame, Message};
use proptest::prelude::*;
use std::collections::HashMap;

const PEERS: u16 = 3;

/// One generation of the model.
#[derive(Clone, Default)]
struct Gen {
    key: u64,
    version: u8,
    sent: u32,
    last: HashMap<u16, u32>,
}

/// The model: the live generations, and every generation ever started
/// (version and key), so a test can send under a dead one.
#[derive(Default)]
struct Model {
    current: Option<Gen>,
    previous: Option<Gen>,
    history: Vec<(u8, u64)>,
}

impl Model {
    /// The ±1 rule: the live generation whose version the tag names.
    fn select(&mut self, version: u8) -> Option<&mut Gen> {
        [&mut self.current, &mut self.previous]
            .into_iter()
            .flatten()
            .find(|g| g.version == version)
    }

    /// Strictly increasing per sender within the generation, from an
    /// empty mark of 0, checked only once the digest holds.
    fn open(&mut self, peer: u16, seq: u32, version: u8, signer: u64) -> Result<(), RejectReason> {
        let g = self.select(version).ok_or(RejectReason::NoKey)?;
        if g.key != signer {
            return Err(RejectReason::BadDigest);
        }
        let last = g.last.get(&peer).copied().unwrap_or(0);
        if seq <= last {
            return Err(RejectReason::Replayed {
                last_accepted: SeqNum::new(last),
            });
        }
        g.last.insert(peer, seq);
        Ok(())
    }

    /// The next number of the current generation, or `None` with no key
    /// or a spent counter; nothing moves then.
    fn seal(&mut self) -> Option<(u32, u8, u64)> {
        let g = self.current.as_mut()?;
        g.sent = g.sent.checked_add(1)?;
        Some((g.sent, g.version, g.key))
    }

    fn start(&mut self, key: u64, version: u8, keep_current: bool) {
        let fresh = Gen {
            key,
            version,
            ..Gen::default()
        };
        let old = self.current.replace(fresh);
        self.previous = if keep_current { old } else { None };
        self.history.push((version, key));
    }

    fn install(&mut self, key: u64) {
        self.start(key, 0, false);
    }

    fn roll(&mut self, key: u64) {
        let version = self
            .current
            .as_ref()
            .map_or(0, |g| g.version.wrapping_add(1));
        self.start(key, version, true);
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Seal,
    /// A frame from `peer` at `seq`, sealed under the generation started
    /// `back` installs or rollovers ago and tagged with its version.
    Genuine {
        peer: u16,
        seq: u32,
        back: usize,
    },
    /// A frame accepted earlier, sent again.
    Replay {
        pick: usize,
    },
    /// A frame sealed under a key the channel never held.
    Forged {
        peer: u16,
        seq: u32,
        key: u64,
    },
    Install {
        key: u64,
    },
    Rollover {
        key: u64,
    },
    /// The current counter moved to `left` short of `u32::MAX`.
    Spend {
        left: u32,
    },
}

fn genuine() -> impl Strategy<Value = Op> {
    (0..PEERS, 0u32..40, 0usize..4).prop_map(|(peer, seq, back)| Op::Genuine { peer, seq, back })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Seal),
        Just(Op::Seal),
        genuine(),
        genuine(),
        any::<usize>().prop_map(|pick| Op::Replay { pick }),
        (0..PEERS, 0u32..40, 1u64..1 << 40).prop_map(|(peer, seq, key)| Op::Forged {
            peer,
            seq,
            key: key << 20
        }),
        (1u64..1 << 20).prop_map(|key| Op::Install { key }),
        (1u64..1 << 20).prop_map(|key| Op::Rollover { key }),
        (0u32..3).prop_map(|left| Op::Spend { left }),
    ]
}

/// (version, last sent, window per peer) of each live generation, current
/// first.
type State = Vec<(u8, u32, Vec<Option<u32>>)>;

fn end_state(end: &ChannelEnd) -> State {
    end.keys()
        .generations()
        .map(|g| {
            let windows = (0..PEERS)
                .map(|p| g.last_accepted(SwitchId::new(p)).map(SeqNum::value))
                .collect();
            (g.version().value(), g.last_sent().value(), windows)
        })
        .collect()
}

fn model_state(model: &Model) -> State {
    [&model.current, &model.previous]
        .into_iter()
        .flatten()
        .map(|g| {
            let windows = (0..PEERS).map(|p| g.last.get(&p).copied()).collect();
            (g.version, g.sent, windows)
        })
        .collect()
}

fn frame(peer: u16, seq: u32, version: u8, key: u64) -> Vec<u8> {
    Message::register_request(
        SwitchId::new(peer),
        SeqNum::new(seq),
        RegisterOp::read_req(RegId::new(1), 0),
    )
    .with_key_version(KeyVersion::new(version))
    .sealed(&HalfSipHashMac::default(), Key64::new(key))
    .encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn channel_end_matches_the_model(ops in proptest::collection::vec(op(), 1..60)) {
        let mac = HalfSipHashMac::default();
        let mut end = ChannelEnd::new(None);
        let mut model = Model::default();
        // Accepted frames as (peer, seq, version, key), for replays.
        let mut accepted: Vec<(u16, u32, u8, u64)> = Vec::new();
        for op in ops {
            let opened = match op {
                Op::Seal => {
                    let msg = Message::register_request(SwitchId::CONTROLLER, SeqNum::default(), RegisterOp::read_req(RegId::new(1), 0));
                    match (end.seal(None, msg, |k, p| mac.compute(k, p)), model.seal()) {
                        (Ok(bytes), Some((seq, version, key))) => {
                            let msg = Message::decode(&bytes).unwrap();
                            prop_assert_eq!(msg.header().seq_num, SeqNum::new(seq));
                            prop_assert_eq!(msg.header().key_version, KeyVersion::new(version));
                            prop_assert!(verify_frame(&mac, Key64::new(key), &bytes));
                        }
                        (Err(msg), None) => prop_assert_eq!(msg.header().seq_num, SeqNum::default()),
                        (got, want) => prop_assert!(false, "seal {:?}, model {:?}", got.is_ok(), want),
                    }
                    None
                }
                Op::Genuine { peer, seq, back } => {
                    let (version, key) = model
                        .history
                        .len()
                        .checked_sub(1 + back)
                        .map_or((0, 1), |i| model.history[i]);
                    Some((peer, seq, version, key))
                }
                Op::Replay { pick } if !accepted.is_empty() => Some(accepted[pick % accepted.len()]),
                Op::Replay { .. } => None,
                Op::Forged { peer, seq, key } => {
                    let version = model.current.as_ref().map_or(0, |g| g.version);
                    Some((peer, seq, version, key))
                }
                Op::Install { key } => {
                    model.install(key);
                    end.rekey(Key64::new(key), false);
                    None
                }
                Op::Rollover { key } => {
                    if model.current.is_some() {
                        model.roll(key);
                        end.rekey(Key64::new(key), true);
                    }
                    None
                }
                Op::Spend { left } => {
                    if let Some(g) = &mut model.current {
                        g.sent = u32::MAX - left;
                        end.fast_forward(SeqNum::new(u32::MAX - left));
                    }
                    None
                }
            };
            if let Some((peer, seq, version, key)) = opened {
                let bytes = frame(peer, seq, version, key);
                let msg = Message::decode(&bytes).unwrap();
                let before = end_state(&end);
                let got = end.open(&msg, |k| verify_frame(&mac, k, &bytes));
                let want = model.open(peer, seq, version, key);
                prop_assert_eq!(got.map(|o| o.key.expose()), want.map(|()| key));
                match want {
                    Ok(()) => accepted.push((peer, seq, version, key)),
                    Err(_) => prop_assert_eq!(end_state(&end), before, "a rejected open changed state"),
                }
            }
            prop_assert_eq!(end_state(&end), model_state(&model));
        }
    }
}
