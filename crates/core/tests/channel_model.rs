//! `ChannelEnd` against a reference model of the authenticated channel:
//! the last accepted sequence number per peer, the current and previous
//! key version with the ±1 rule, and an outbound counter. Random operation
//! sequences go through both; every verdict and reject reason must match,
//! and a rejected open must leave every counter, window and version as it
//! was.

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

/// The model. `keys[v]` is the key installed at version `v`; `version` is
/// `None` until the first install.
#[derive(Default)]
struct Model {
    keys: Vec<u64>,
    version: Option<usize>,
    has_previous: bool,
    last: HashMap<u16, u32>,
    sent: u32,
}

impl Model {
    /// The ±1 rule: the current version, or the one before it if a
    /// rollover kept it.
    fn select(&self, version: usize) -> Option<u64> {
        let current = self.version?;
        let previous = self.has_previous && version + 1 == current;
        (version == current || previous).then(|| self.keys[version])
    }

    /// Strictly increasing per peer, checked only once the digest holds.
    fn open(
        &mut self,
        peer: u16,
        seq: u32,
        version: usize,
        signer: u64,
    ) -> Result<(), RejectReason> {
        let key = self.select(version).ok_or(RejectReason::NoKey)?;
        if key != signer {
            return Err(RejectReason::BadDigest);
        }
        match self.last.get(&peer) {
            Some(&last) if seq <= last => Err(RejectReason::Replayed {
                last_accepted: SeqNum::new(last),
            }),
            _ => {
                self.last.insert(peer, seq);
                Ok(())
            }
        }
    }

    fn install(&mut self, key: u64) {
        // An install keeps the version and drops the previous generation.
        let v = self.version.unwrap_or(0);
        self.keys.truncate(v);
        self.keys.push(key);
        self.version = Some(v);
        self.has_previous = false;
    }

    fn roll(&mut self, key: u64) {
        self.keys.push(key);
        self.version = Some(self.keys.len() - 1);
        self.has_previous = true;
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Seal,
    /// A frame from `peer` at `seq`, tagged `back` versions before the
    /// current one and sealed under that version's key.
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
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Seal),
        (0..PEERS, 0u32..40, 0usize..3).prop_map(|(peer, seq, back)| Op::Genuine {
            peer,
            seq,
            back
        }),
        (0..PEERS, 0u32..40, 0usize..3).prop_map(|(peer, seq, back)| Op::Genuine {
            peer,
            seq,
            back
        }),
        any::<usize>().prop_map(|pick| Op::Replay { pick }),
        (0..PEERS, 0u32..40, 1u64..1 << 40).prop_map(|(peer, seq, key)| Op::Forged {
            peer,
            seq,
            key: key << 20
        }),
        (1u64..1 << 20).prop_map(|key| Op::Install { key }),
        (1u64..1 << 20).prop_map(|key| Op::Rollover { key }),
    ]
}

/// Everything a rejected open must leave alone.
fn state(end: &ChannelEnd) -> (SeqNum, Vec<Option<SeqNum>>, KeyVersion, Option<Key64>) {
    let windows = (0..PEERS)
        .map(|p| end.last_accepted(SwitchId::new(p)))
        .collect();
    (
        end.last_sent(),
        windows,
        end.keys().version(),
        end.keys().current(),
    )
}

fn frame(peer: u16, seq: u32, version: usize, key: u64) -> Vec<u8> {
    Message::register_request(
        SwitchId::new(peer),
        SeqNum::new(seq),
        RegisterOp::read_req(RegId::new(1), 0),
    )
    .with_key_version(KeyVersion::new(version as u8))
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
        let mut accepted: Vec<(u16, u32, usize, u64)> = Vec::new();
        for op in ops {
            let opened = match op {
                Op::Seal => {
                    model.sent += 1;
                    let build = |seq| Message::register_request(SwitchId::CONTROLLER, seq, RegisterOp::read_req(RegId::new(1), 0));
                    match (end.seal(build, |k, p| mac.compute(k, p)), model.version) {
                        (Ok(bytes), Some(v)) => {
                            let msg = Message::decode(&bytes).unwrap();
                            prop_assert_eq!(msg.header().seq_num, SeqNum::new(model.sent));
                            prop_assert_eq!(msg.header().key_version, KeyVersion::new(v as u8));
                            prop_assert!(verify_frame(&mac, Key64::new(model.keys[v]), &bytes));
                        }
                        (Err(msg), None) => prop_assert_eq!(msg.header().seq_num, SeqNum::new(model.sent)),
                        (got, want) => prop_assert!(false, "seal {:?} with model version {:?}", got.is_ok(), want),
                    }
                    None
                }
                Op::Genuine { peer, seq, back } => {
                    let v = model.version.unwrap_or(0).saturating_sub(back);
                    let key = model.keys.get(v).copied().unwrap_or(1);
                    Some((peer, seq, v, key))
                }
                Op::Replay { pick } if !accepted.is_empty() => Some(accepted[pick % accepted.len()]),
                Op::Replay { .. } => None,
                Op::Forged { peer, seq, key } => Some((peer, seq, model.version.unwrap_or(0), key)),
                Op::Install { key } => {
                    model.install(key);
                    end.rekey(Key64::new(key), false);
                    None
                }
                Op::Rollover { key } => {
                    if model.version.is_some() {
                        model.roll(key);
                        end.rekey(Key64::new(key), true);
                    }
                    None
                }
            };
            let Some((peer, seq, version, key)) = opened else { continue };
            let bytes = frame(peer, seq, version, key);
            let msg = Message::decode(&bytes).unwrap();
            let before = state(&end);
            let got = end.open(SwitchId::new(peer), &msg, true, |k| {
                verify_frame(&mac, k, &bytes)
            });
            let want = model.open(peer, seq, version, key);
            prop_assert_eq!(got.map(Key64::expose), want.map(|()| key));
            match want {
                Ok(()) => accepted.push((peer, seq, version, key)),
                Err(_) => prop_assert_eq!(state(&end), before, "a rejected open changed state"),
            }
        }
    }
}
