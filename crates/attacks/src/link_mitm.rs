//! The on-link MitM adversary (§II-A, Fig. 3).
//!
//! A malicious neighbour switch (or an attacker host the traffic was
//! rerouted through) rewrites in-network feedback messages crossing a
//! link — the HULA attack: rewrite `probeUtil` so the compromised path
//! looks idle and attracts all traffic (Fig. 17).

use p4auth_netsim::sim::{Tap, TapAction, TapFrame};
use p4auth_wire::body::{Body, InNetwork};
use p4auth_wire::Message;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared counter of frames modified.
pub type TamperCount = Rc<RefCell<u64>>;

/// Creates a fresh tamper counter.
pub fn tamper_counter() -> TamperCount {
    Rc::new(RefCell::new(0))
}

/// A tap that overwrites byte `offset` of every in-network control payload
/// belonging to `system` with `value`.
///
/// For HULA probes (`dst:u16 | round:u32 | util:u8`) the util byte is at
/// offset 6, so `rewrite_probe_field(HULA_SYSTEM_ID, 6, 10, …)` is the
/// paper's "S1 is informed that the path utilization to the destination
/// via S4 is low (10 %), though the actual utilization is relatively
/// high" attack.
pub fn rewrite_probe_field(system: u8, offset: usize, value: u8, count: TamperCount) -> Tap {
    Box::new(move |_now, _from, _to, payload: &mut TapFrame| {
        let Ok(mut msg) = Message::decode(payload) else {
            return TapAction::Forward;
        };
        let Body::InNetwork(inner) = msg.body() else {
            return TapAction::Forward;
        };
        if inner.system != system || offset >= inner.payload.len() {
            return TapAction::Forward;
        }
        let mut bytes = inner.payload.clone();
        if bytes[offset] == value {
            return TapAction::Forward; // already "attacked"; nothing to change
        }
        bytes[offset] = value;
        let sys = inner.system;
        *msg.body_mut() = Body::InNetwork(InNetwork::new(sys, bytes));
        payload.replace(msg.encode());
        *count.borrow_mut() += 1;
        TapAction::Forward
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_netsim::time::SimTime;
    use p4auth_netsim::topology::Endpoint;
    use p4auth_primitives::mac::HalfSipHashMac;
    use p4auth_primitives::Key64;
    use p4auth_wire::ids::{PortId, SeqNum, SwitchId};

    fn probe_msg(util: u8) -> Message {
        // dst=5, round=1, util.
        let payload = vec![0, 5, 0, 0, 0, 1, util];
        Message::in_network(
            SwitchId::new(4),
            PortId::new(1),
            SeqNum::new(3),
            InNetwork::new(1, payload),
        )
    }

    fn eps() -> (Endpoint, Endpoint) {
        (
            Endpoint::new(SwitchId::new(4), PortId::new(1)),
            Endpoint::new(SwitchId::new(1), PortId::new(3)),
        )
    }

    #[test]
    fn rewrites_util_byte_and_invalidates_digest() {
        let count = tamper_counter();
        let mut tap = rewrite_probe_field(1, 6, 10, count.clone());
        let key = Key64::new(0xab07);
        let sealed = probe_msg(50).sealed(&HalfSipHashMac::default(), key);
        let (a, b) = eps();
        let mut frame = TapFrame::new(sealed.encode());
        assert_eq!(tap(SimTime::ZERO, a, b, &mut frame), TapAction::Forward);
        assert!(frame.modified());
        let tampered = Message::decode(&frame).unwrap();
        let Body::InNetwork(inner) = tampered.body() else {
            panic!()
        };
        assert_eq!(inner.payload[6], 10);
        assert!(!tampered.verify(&HalfSipHashMac::default(), key));
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn leaves_other_systems_alone() {
        let count = tamper_counter();
        let mut tap = rewrite_probe_field(1, 6, 10, count.clone());
        let (a, b) = eps();
        let other = Message::in_network(
            SwitchId::new(4),
            PortId::new(1),
            SeqNum::new(3),
            InNetwork::new(9, vec![0; 7]),
        );
        let mut frame = TapFrame::new(other.encode());
        tap(SimTime::ZERO, a, b, &mut frame);
        assert!(!frame.modified());
        assert_eq!(*frame, other.encode());
        assert_eq!(*count.borrow(), 0);
    }

    #[test]
    fn no_op_when_value_already_matches() {
        let count = tamper_counter();
        let mut tap = rewrite_probe_field(1, 6, 10, count.clone());
        let (a, b) = eps();
        let mut frame = TapFrame::new(probe_msg(10).encode());
        let orig = probe_msg(10).encode();
        tap(SimTime::ZERO, a, b, &mut frame);
        assert!(!frame.modified());
        assert_eq!(*frame, orig);
        assert_eq!(*count.borrow(), 0);
    }

    #[test]
    fn out_of_range_offset_is_harmless() {
        let count = tamper_counter();
        let mut tap = rewrite_probe_field(1, 99, 10, count.clone());
        let (a, b) = eps();
        let mut frame = TapFrame::new(probe_msg(50).encode());
        let orig = probe_msg(50).encode();
        tap(SimTime::ZERO, a, b, &mut frame);
        assert!(!frame.modified());
        assert_eq!(*frame, orig);
    }
}
