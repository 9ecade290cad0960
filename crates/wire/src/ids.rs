//! Identifier newtypes used across the P4Auth protocol.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a switch in the network (carried in the header so receivers
/// can select the per-peer sequence window and key).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SwitchId(u16);

impl SwitchId {
    /// The controller's reserved id.
    pub const CONTROLLER: SwitchId = SwitchId(0);

    /// Creates a switch id.
    pub const fn new(raw: u16) -> Self {
        SwitchId(raw)
    }

    /// Raw wire value.
    pub const fn value(self) -> u16 {
        self.0
    }

    /// Whether this id denotes the controller endpoint.
    pub const fn is_controller(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_controller() {
            f.write_str("C")
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A switch port number. Port keys live at `key_register[port]`; index 0 is
/// reserved for the local key (§VII), so valid data ports are 1-based.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct PortId(u8);

impl PortId {
    /// The CPU/controller port (also the key-register slot of `K_local`).
    pub const CPU: PortId = PortId(0);

    /// Creates a port id.
    pub const fn new(raw: u8) -> Self {
        PortId(raw)
    }

    /// Raw wire value.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Whether this is the CPU port.
    pub const fn is_cpu(self) -> bool {
        self.0 == 0
    }

    /// Key-register index for this port (identity; named for intent).
    pub const fn key_index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_cpu() {
            f.write_str("cpu")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A register identifier from the p4Info file (§VII): the controller names
/// registers by id, the data plane maps them back with the
/// `reg_id_to_name_mapping` table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct RegId(u32);

impl RegId {
    /// Creates a register id.
    pub const fn new(raw: u32) -> Self {
        RegId(raw)
    }

    /// Raw wire value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for RegId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "reg#{}", self.0)
    }
}

/// Sequence number for request/response matching and replay defence.
///
/// The paper notes 16-bit sequence numbers wrap quickly; it recommends 32
/// bits plus key rollover inside the wrap-around window (§VIII). Numbers
/// belong to one key generation and never wrap: a counter that reaches
/// `u32::MAX` stops, and the key is rolled long before (DESIGN §2).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug, Serialize, Deserialize,
)]
pub struct SeqNum(u32);

impl SeqNum {
    /// Creates a sequence number.
    pub const fn new(raw: u32) -> Self {
        SeqNum(raw)
    }

    /// Raw wire value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// The successor; `None` at `u32::MAX`.
    #[must_use]
    pub const fn next(self) -> Option<SeqNum> {
        match self.0.checked_add(1) {
            Some(raw) => Some(SeqNum(raw)),
            None => None,
        }
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Key version tag for consistent key updates (§VI-C): both planes keep the
/// old and the new key; the sender tags which one authenticated the message.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug, Serialize, Deserialize)]
pub struct KeyVersion(u8);

impl KeyVersion {
    /// The initial version.
    pub const INITIAL: KeyVersion = KeyVersion(0);

    /// Creates a key version.
    pub const fn new(raw: u8) -> Self {
        KeyVersion(raw)
    }

    /// Raw wire value.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// The next version (wrapping).
    #[must_use]
    pub const fn next(self) -> KeyVersion {
        KeyVersion(self.0.wrapping_add(1))
    }
}

impl fmt::Display for KeyVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_id_is_zero() {
        assert!(SwitchId::CONTROLLER.is_controller());
        assert!(!SwitchId::new(5).is_controller());
        assert_eq!(format!("{:?}", SwitchId::CONTROLLER), "C");
        assert_eq!(format!("{}", SwitchId::new(4)), "S4");
    }

    #[test]
    fn cpu_port_is_local_key_slot() {
        assert!(PortId::CPU.is_cpu());
        assert_eq!(PortId::CPU.key_index(), 0);
        assert_eq!(PortId::new(7).key_index(), 7);
        assert_eq!(format!("{}", PortId::new(2)), "p2");
        assert_eq!(format!("{}", PortId::CPU), "cpu");
    }

    #[test]
    fn seqnum_stops_at_the_last_number() {
        assert_eq!(SeqNum::new(5).next(), Some(SeqNum::new(6)));
        assert_eq!(SeqNum::new(u32::MAX).next(), None);
    }

    #[test]
    fn key_version_succession() {
        assert_eq!(KeyVersion::INITIAL.next(), KeyVersion::new(1));
        assert_eq!(KeyVersion::new(255).next(), KeyVersion::new(0));
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", RegId::new(1234)), "reg#1234");
        assert_eq!(format!("{}", KeyVersion::new(3)), "v3");
        assert_eq!(format!("{}", SeqNum::new(9)), "9");
    }
}
