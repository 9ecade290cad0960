//! Match-action tables.
//!
//! The emulator models exact-match tables with bounded capacity. P4Auth
//! uses one: `reg_id_to_name_mapping`, which maps a controller-visible
//! register id plus operation (read/write) to the action that accesses the
//! named data-plane register — two entries per register, 40 bits each
//! (32-bit regId + 8-bit msgType), exactly the Table II SRAM accounting.

use p4auth_primitives::idhash::IdMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which memory a table's entries occupy (drives the resource model).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TableKind {
    /// Exact-match tables typically compile to SRAM hash tables.
    ExactSram,
    /// Ternary/LPM tables occupy TCAM (e.g. the L3 forwarding table).
    TernaryTcam,
}

/// A match key: raw 64-bit key material plus an 8-bit qualifier
/// (the `msgType`/read-write discriminator of Fig. 15).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct MatchKey {
    /// Primary key bits (e.g. the 32-bit register id, or an IP prefix).
    pub key: u64,
    /// Secondary qualifier (e.g. 1 = read, 2 = write).
    pub qualifier: u8,
}

impl MatchKey {
    /// Creates a match key.
    pub const fn new(key: u64, qualifier: u8) -> Self {
        MatchKey { key, qualifier }
    }
}

/// An action binding: an action id and up to two data words, as action
/// parameters are in compiled P4.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ActionEntry {
    /// Which action routine to run (program-defined).
    pub action_id: u32,
    /// First action parameter.
    pub data0: u64,
    /// Second action parameter.
    pub data1: u64,
}

impl ActionEntry {
    /// Creates an action entry.
    pub const fn new(action_id: u32, data0: u64, data1: u64) -> Self {
        ActionEntry {
            action_id,
            data0,
            data1,
        }
    }
}

/// Error when inserting into a full table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TableFullError {
    /// Configured capacity.
    pub capacity: u32,
}

impl fmt::Display for TableFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table full (capacity {})", self.capacity)
    }
}

impl std::error::Error for TableFullError {}

/// A bounded exact-match table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MatchTable {
    name: String,
    kind: TableKind,
    capacity: u32,
    key_bits: u32,
    entries: IdMap<MatchKey, ActionEntry>,
}

impl MatchTable {
    /// Creates an empty table.
    ///
    /// `key_bits` is the match-key width used for memory accounting (the
    /// paper's register-mapping table uses 40 bits).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, kind: TableKind, capacity: u32, key_bits: u32) -> Self {
        assert!(capacity > 0, "table capacity must be positive");
        MatchTable {
            name: name.into(),
            kind,
            capacity,
            key_bits,
            entries: IdMap::default(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Memory kind.
    pub fn kind(&self) -> TableKind {
        self.kind
    }

    /// Configured capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Installed entry count.
    pub fn len(&self) -> u32 {
        self.entries.len() as u32
    }

    /// Whether the table has no installed entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bits of match memory the *installed* entries consume.
    pub fn used_bits(&self) -> u64 {
        self.entries.len() as u64 * self.key_bits as u64
    }

    /// Installs or overwrites an entry.
    ///
    /// # Errors
    ///
    /// Returns [`TableFullError`] when inserting a *new* key into a full
    /// table (overwrites always succeed).
    pub fn insert(&mut self, key: MatchKey, action: ActionEntry) -> Result<(), TableFullError> {
        if !self.entries.contains_key(&key) && self.entries.len() as u32 >= self.capacity {
            return Err(TableFullError {
                capacity: self.capacity,
            });
        }
        self.entries.insert(key, action);
        Ok(())
    }

    /// Removes an entry, returning it if present.
    pub fn remove(&mut self, key: MatchKey) -> Option<ActionEntry> {
        self.entries.remove(&key)
    }

    /// Looks up a key; `None` on a miss.
    pub fn lookup(&self, key: MatchKey) -> Option<ActionEntry> {
        self.entries.get(&key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> MatchTable {
        MatchTable::new("reg_id_to_name_mapping", TableKind::ExactSram, 8, 40)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = table();
        let k = MatchKey::new(1234, 1);
        let a = ActionEntry::new(7, 0, 0);
        t.insert(k, a).unwrap();
        assert_eq!(t.lookup(k), Some(a));
        assert_eq!(t.remove(k), Some(a));
        assert_eq!(t.lookup(k), None);
    }

    #[test]
    fn qualifier_distinguishes_read_from_write() {
        // Fig. 15: each register has two entries, read and write.
        let mut t = table();
        t.insert(MatchKey::new(1234, 1), ActionEntry::new(10, 0, 0))
            .unwrap(); // reg1_read
        t.insert(MatchKey::new(1234, 2), ActionEntry::new(11, 0, 0))
            .unwrap(); // reg1_write
        assert_eq!(t.lookup(MatchKey::new(1234, 1)).unwrap().action_id, 10);
        assert_eq!(t.lookup(MatchKey::new(1234, 2)).unwrap().action_id, 11);
        assert_eq!(t.len(), 2);
        assert_eq!(t.used_bits(), 80); // 2 entries * 40 bits (Table II math)
    }

    #[test]
    fn capacity_enforced() {
        let mut t = MatchTable::new("tiny", TableKind::ExactSram, 2, 32);
        t.insert(MatchKey::new(1, 0), ActionEntry::new(1, 0, 0))
            .unwrap();
        t.insert(MatchKey::new(2, 0), ActionEntry::new(2, 0, 0))
            .unwrap();
        let err = t
            .insert(MatchKey::new(3, 0), ActionEntry::new(3, 0, 0))
            .unwrap_err();
        assert_eq!(err.to_string(), "table full (capacity 2)");
        // Overwriting an existing key still works at capacity.
        t.insert(MatchKey::new(1, 0), ActionEntry::new(9, 0, 0))
            .unwrap();
        assert_eq!(t.lookup(MatchKey::new(1, 0)).unwrap().action_id, 9);
    }

    #[test]
    fn memory_accounting() {
        let t = MatchTable::new("l3_fwd", TableKind::TernaryTcam, 1024, 32);
        assert_eq!(t.used_bits(), 0);
        assert_eq!(t.kind(), TableKind::TernaryTcam);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = MatchTable::new("bad", TableKind::ExactSram, 0, 8);
    }
}
