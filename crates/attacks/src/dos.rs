//! Denial-of-service adversaries (§VIII, "Denial-of-service attack").
//!
//! Two flavours from the paper:
//!
//! 1. Modify many *requests* toward the data plane → the DP emits one
//!    alert per failure, jamming the C-DP link and the controller. P4Auth
//!    mitigates with the data-plane alert rate limiter
//!    ([`p4auth_core::auth::AlertLimiter`]).
//! 2. Flood forged *responses* toward the controller → mitigated by the
//!    controller's outstanding-request threshold and unmatched-response
//!    accounting.
//!
//! This module generates the attack traffic; the defences live in core and
//! controller and are exercised by the integration tests and the Table I
//! rows of `p4auth_systems::table1`.

use p4auth_primitives::rng::RandomSource;
use p4auth_wire::body::{Body, RegisterOp};
use p4auth_wire::ids::{PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::Message;

/// Generates `n` forged write requests with garbage digests (the
/// "modify many request messages" attack): each will fail verification at
/// the data plane and trigger the alert path.
pub fn forged_write_requests(n: u64, reg: RegId, rng: &mut dyn RandomSource) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut msg = Message::register_request(
                SwitchId::CONTROLLER,
                SeqNum::new(i as u32 + 1),
                RegisterOp::write_req(reg, 0, rng.next_u64()),
            );
            // A guessed digest (the adversary cannot compute real ones).
            msg.header_mut().digest = p4auth_primitives::Digest32::new(rng.next_u64() as u32);
            msg.encode()
        })
        .collect()
}

/// Generates `n` forged responses claiming to come from `switch` (the
/// "modified response messages sent to the controller" attack).
pub fn forged_responses(n: u64, switch: SwitchId, rng: &mut dyn RandomSource) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut msg = Message::new(
                switch,
                PortId::CPU,
                SeqNum::new(i as u32 + 1),
                Body::Register(RegisterOp::Ack {
                    reg: RegId::new(rng.next_u64() as u32),
                    index: 0,
                    value: rng.next_u64(),
                }),
            );
            msg.header_mut().digest = p4auth_primitives::Digest32::new(rng.next_u64() as u32);
            msg.encode()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_primitives::rng::SplitMix64;

    #[test]
    fn forged_requests_decode_but_never_verify() {
        let mut rng = SplitMix64::new(1);
        let frames = forged_write_requests(100, RegId::new(7), &mut rng);
        assert_eq!(frames.len(), 100);
        let mac = p4auth_primitives::mac::HalfSipHashMac::default();
        let key = p4auth_primitives::Key64::new(0x5eed);
        for f in &frames {
            let msg = Message::decode(f).unwrap();
            assert!(!msg.verify(&mac, key));
        }
    }

    #[test]
    fn forged_responses_have_distinct_seqs() {
        let mut rng = SplitMix64::new(2);
        let frames = forged_responses(10, SwitchId::new(3), &mut rng);
        let seqs: std::collections::HashSet<u32> = frames
            .iter()
            .map(|f| Message::decode(f).unwrap().header().seq_num.value())
            .collect();
        assert_eq!(seqs.len(), 10);
    }
}
