//! Packets as the data plane sees them.

use p4auth_wire::ids::PortId;
use serde::{Deserialize, Serialize};

/// A packet inside a switch: raw bytes plus ingress metadata.
///
/// P4Auth protocol messages travel as encoded [`p4auth_wire::Message`]s in
/// these bytes; ordinary data-plane traffic (the flows HULA balances) is
/// opaque payload.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Packet {
    /// Port the packet arrived on ([`PortId::CPU`] for PacketOut from the
    /// control plane).
    pub ingress: PortId,
    /// Raw frame bytes.
    pub bytes: Vec<u8>,
}

impl Packet {
    /// Creates a packet from raw bytes.
    pub fn from_bytes(ingress: PortId, bytes: Vec<u8>) -> Self {
        Packet { ingress, bytes }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_packet() {
        let pkt = Packet::from_bytes(PortId::new(2), vec![]);
        assert!(pkt.is_empty());
        assert_eq!(pkt.len(), 0);
        assert!(!Packet::from_bytes(PortId::new(1), vec![0xff; 5]).is_empty());
    }
}
