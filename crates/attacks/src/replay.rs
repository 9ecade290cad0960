//! Replay adversary (§VIII, "Replay attack").
//!
//! The adversary cannot forge digests, but it can record a *validly
//! sealed* `writeReq` and play it back later, re-applying an old (perhaps
//! once-legitimate) state change. P4Auth's sequence numbers defeat this:
//! the replayed message's `seqNum` is at or below the receiver's window,
//! so it is rejected and an alert raised.

use p4auth_netsim::sim::{Tap, TapAction, TapFrame};
use p4auth_wire::body::{Body, RegisterOp};
use p4auth_wire::Message;
use std::cell::RefCell;
use std::rc::Rc;

/// A shared recording of captured frames.
pub type Capture = Rc<RefCell<Vec<Vec<u8>>>>;

/// Creates an empty capture buffer.
pub fn capture_buffer() -> Capture {
    Rc::new(RefCell::new(Vec::new()))
}

/// A passive tap that records every sealed register *write request*
/// crossing the link into `capture` (and forwards it untouched).
pub fn record_write_requests(capture: Capture) -> Tap {
    Box::new(move |_now, _from, _to, payload: &mut TapFrame| {
        if let Ok(msg) = Message::decode(payload) {
            if matches!(msg.body(), Body::Register(RegisterOp::WriteReq { .. })) {
                capture.borrow_mut().push(payload.clone());
            }
        }
        TapAction::Forward
    })
}

/// Drains the capture buffer, returning the recorded frames for
/// re-injection (the attacker "puts the messages back into the network",
/// §II-A).
pub fn drain(capture: &Capture) -> Vec<Vec<u8>> {
    std::mem::take(&mut *capture.borrow_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_netsim::time::SimTime;
    use p4auth_netsim::topology::Endpoint;
    use p4auth_wire::ids::{PortId, RegId, SeqNum, SwitchId};

    fn eps() -> (Endpoint, Endpoint) {
        (
            Endpoint::new(SwitchId::CONTROLLER, PortId::new(0)),
            Endpoint::new(SwitchId::new(1), PortId::new(63)),
        )
    }

    #[test]
    fn records_only_write_requests() {
        let cap = capture_buffer();
        let mut tap = record_write_requests(cap.clone());
        let (a, b) = eps();

        let write = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(1),
            RegisterOp::write_req(RegId::new(1), 0, 42),
        )
        .encode();
        let read = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(2),
            RegisterOp::read_req(RegId::new(1), 0),
        )
        .encode();

        let mut w = TapFrame::new(write.clone());
        assert_eq!(tap(SimTime::ZERO, a, b, &mut w), TapAction::Forward);
        assert!(!w.modified(), "recording must not modify the frame");
        assert_eq!(*w, write);
        let mut r = TapFrame::new(read.clone());
        tap(SimTime::ZERO, a, b, &mut r);
        let mut garbage = TapFrame::new(vec![9, 9]);
        tap(SimTime::ZERO, a, b, &mut garbage);

        let frames = drain(&cap);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0], write);
        assert!(cap.borrow().is_empty());
    }
}
