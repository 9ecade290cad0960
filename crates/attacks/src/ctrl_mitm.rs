//! The control-plane MitM adversary (§II-A).
//!
//! A backdoor in the switch OS (installed via `LD_PRELOAD` preloading, a
//! CVE exploit, or an insider — §II-A/§II-B) intercepts the parameters of
//! driver calls between the gRPC agent and the SDK. In the simulator this
//! is a tap on the C-DP link: the adversary sees every register
//! read/write request and response in the clear and can rewrite them.
//!
//! Crucially, the adversary does *not* know `K_local` (it lives in the
//! data plane and the controller only), so rewritten messages keep their
//! now-stale digest — which is exactly what P4Auth detects.

use p4auth_netsim::sim::{Tap, TapAction, TapFrame};
use p4auth_wire::body::{Body, RegisterOp};
use p4auth_wire::ids::RegId;
use p4auth_wire::Message;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared counter of frames an attack tap has modified.
pub type TamperCount = Rc<RefCell<u64>>;

/// Creates a fresh tamper counter.
pub fn tamper_counter() -> TamperCount {
    Rc::new(RefCell::new(0))
}

/// A tap that multiplies the value of register read *responses* (`ack`)
/// matching `reg`/`index` by `factor` — the Fig. 2 latency-inflation
/// attack on RouteScout ("the attacker aiming to congest Path 2 may
/// inflate latency on Path 1").
pub fn inflate_read_response(reg: RegId, index: u32, factor: u64, count: TamperCount) -> Tap {
    Box::new(move |_now, _from, _to, payload: &mut TapFrame| {
        let Ok(mut msg) = Message::decode(payload) else {
            return TapAction::Forward;
        };
        if let Body::Register(RegisterOp::Ack {
            reg: r,
            index: i,
            value,
        }) = *msg.body()
        {
            if r == reg && i == index {
                *msg.body_mut() = Body::Register(RegisterOp::Ack {
                    reg: r,
                    index: i,
                    value: value.saturating_mul(factor),
                });
                payload.replace(msg.encode());
                *count.borrow_mut() += 1;
            }
        }
        TapAction::Forward
    })
}

/// A tap that overwrites the value of register *write requests* matching
/// `reg`/`index` — the "alter a C-DP update message" attack (e.g.
/// rewriting RouteScout's split ratio or Blink's next-hop list, Table I).
pub fn rewrite_write_request(reg: RegId, index: u32, new_value: u64, count: TamperCount) -> Tap {
    Box::new(move |_now, _from, _to, payload: &mut TapFrame| {
        let Ok(mut msg) = Message::decode(payload) else {
            return TapAction::Forward;
        };
        if let Body::Register(RegisterOp::WriteReq {
            reg: r, index: i, ..
        }) = *msg.body()
        {
            if r == reg && i == index {
                *msg.body_mut() = Body::Register(RegisterOp::WriteReq {
                    reg: r,
                    index: i,
                    value: new_value,
                });
                payload.replace(msg.encode());
                *count.borrow_mut() += 1;
            }
        }
        TapAction::Forward
    })
}

/// A passive eavesdropper: records every decodable message crossing the
/// link (the §VI motivation — key-exchange messages are visible to the
/// compromised control plane, which is why they must be authenticated and
/// why the derived secrets never cross the wire).
pub fn eavesdropper(log: Rc<RefCell<Vec<Message>>>) -> Tap {
    Box::new(move |_now, _from, _to, payload: &mut TapFrame| {
        if let Ok(msg) = Message::decode(payload) {
            log.borrow_mut().push(msg);
        }
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

    fn endpoints() -> (Endpoint, Endpoint) {
        (
            Endpoint::new(SwitchId::new(1), PortId::new(63)),
            Endpoint::new(SwitchId::CONTROLLER, PortId::new(0)),
        )
    }

    fn ack(value: u64) -> Message {
        Message::new(
            SwitchId::new(1),
            PortId::CPU,
            SeqNum::new(7),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(2001),
                index: 0,
                value,
            }),
        )
    }

    #[test]
    fn inflates_matching_ack() {
        let count = tamper_counter();
        let mut tap = inflate_read_response(RegId::new(2001), 0, 10, count.clone());
        let (a, b) = endpoints();
        let sealed = ack(100).sealed(&HalfSipHashMac::default(), Key64::new(5));
        let mut frame = TapFrame::new(sealed.encode());
        assert_eq!(tap(SimTime::ZERO, a, b, &mut frame), TapAction::Forward);
        assert!(frame.modified());
        let tampered = Message::decode(&frame).unwrap();
        assert!(matches!(
            tampered.body(),
            Body::Register(RegisterOp::Ack { value: 1000, .. })
        ));
        // The digest is stale: verification fails at the controller.
        assert!(!tampered.verify(&HalfSipHashMac::default(), Key64::new(5)));
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn ignores_non_matching_traffic() {
        let count = tamper_counter();
        let mut tap = inflate_read_response(RegId::new(2001), 0, 10, count.clone());
        let (a, b) = endpoints();
        // Different index: untouched.
        let mut frame = TapFrame::new(ack(100).encode());
        let orig = ack(100).encode();
        let other = Message::new(
            SwitchId::new(1),
            PortId::CPU,
            SeqNum::new(7),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(2001),
                index: 1,
                value: 100,
            }),
        );
        let mut other_frame = TapFrame::new(other.encode());
        tap(SimTime::ZERO, a, b, &mut other_frame);
        assert!(!other_frame.modified());
        assert_eq!(*other_frame, other.encode());
        // Garbage: untouched.
        let mut garbage = TapFrame::new(vec![1, 2, 3]);
        tap(SimTime::ZERO, a, b, &mut garbage);
        assert_eq!(*garbage, vec![1, 2, 3]);
        // Matching: touched.
        tap(SimTime::ZERO, a, b, &mut frame);
        assert!(frame.modified());
        assert_ne!(*frame, orig);
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn rewrites_write_request() {
        let count = tamper_counter();
        let mut tap = rewrite_write_request(RegId::new(2003), 0, 0, count.clone());
        let (a, b) = endpoints();
        let req = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::write_req(RegId::new(2003), 0, 50),
        );
        let mut frame = TapFrame::new(req.encode());
        tap(SimTime::ZERO, b, a, &mut frame);
        let tampered = Message::decode(&frame).unwrap();
        assert!(matches!(
            tampered.body(),
            Body::Register(RegisterOp::WriteReq { value: 0, .. })
        ));
        assert_eq!(*count.borrow(), 1);
    }

    #[test]
    fn eavesdropper_records_but_forwards() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut tap = eavesdropper(log.clone());
        let (a, b) = endpoints();
        let mut frame = TapFrame::new(ack(9).encode());
        let orig = ack(9).encode();
        assert_eq!(tap(SimTime::ZERO, a, b, &mut frame), TapAction::Forward);
        // Passive read: no snapshot, no modification.
        assert!(!frame.modified());
        assert_eq!(*frame, orig);
        assert_eq!(log.borrow().len(), 1);
    }
}
