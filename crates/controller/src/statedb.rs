//! The replicated control plane's orchestration state table.
//!
//! [`StateDb`] holds what a restarted daemon must re-read to carry on
//! where the old one stopped — a bulk-rollover epoch's progress (`kmp`)
//! and the channels leased to another replica (`leases`); the
//! [`daemons`](crate::daemons) module documents both tables — plus a
//! count of value-changing writes. It holds nothing else: every table has
//! a writer *and* a non-test reader. Register-plane outcomes are counted
//! in `ControllerStats` and the `ctrl_*` telemetry series and returned to
//! the caller as events; key material stays in the cores. A table without
//! a reader is a write every op pays for nothing, so whoever needs one
//! adds it together with what reads it.
//!
//! Everything is deterministic by construction: tables and keys live in
//! `BTreeMap`s, so iteration order is the key order, never the hash-seed
//! order, and the table reads no clock.
//!
//! Writes are idempotent: storing a value equal to the current one is not
//! a write and does not count. Daemons lean on this — a restarted daemon
//! replays its decision procedure against the table and the no-op writes
//! vanish, which is what makes recovery "resume from the state table"
//! instead of "carefully avoid repeating yourself". The count
//! ([`StateDb::writes`]) is also the daemons' wake edge: a daemon that
//! remembers the count it last saw knows whether, and by how much, the
//! table changed since.

use serde::Serialize;
use std::collections::BTreeMap;

/// A value stored in the state table.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub enum Value {
    /// An unsigned counter / timestamp / enum discriminant.
    U64(u64),
    /// A small status string (state-machine phase, e.g. `done@3`).
    Text(String),
}

impl Value {
    /// The numeric value, if this is a [`Value::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The text value, if this is a [`Value::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }
}

/// The deterministic orchestration state table. See the module docs.
#[derive(Default)]
pub struct StateDb {
    tables: BTreeMap<String, BTreeMap<String, Value>>,
    writes: u64,
}

impl StateDb {
    /// An empty state table.
    pub fn new() -> Self {
        StateDb::default()
    }

    /// Writes `table/key = value`. Writing the value already stored is a
    /// no-op: nothing changes and [`StateDb::writes`] does not move.
    pub fn set(&mut self, table: &str, key: &str, value: Value) {
        // Looked up by `&str` first, so a write under names the maps
        // already hold copies no string.
        let entries = match self.tables.get_mut(table) {
            Some(entries) => entries,
            None => self.tables.entry(table.to_string()).or_default(),
        };
        match entries.get_mut(key) {
            Some(held) if *held == value => return,
            Some(held) => *held = value,
            None => {
                entries.insert(key.to_string(), value);
            }
        }
        self.writes += 1;
    }

    /// Removes `table/key`. A removal is not a write — the daemons model
    /// completion with terminal status values instead, so nothing waits
    /// on one. Returns whether the key existed.
    pub fn remove(&mut self, table: &str, key: &str) -> bool {
        self.tables
            .get_mut(table)
            .is_some_and(|t| t.remove(key).is_some())
    }

    /// The current value at `table/key`, if any.
    pub fn value(&self, table: &str, key: &str) -> Option<&Value> {
        self.tables.get(table)?.get(key)
    }

    /// Total writes accepted so far (no-op writes excluded).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// All entries of `table` in key order, for tests that pin the whole
    /// table. Nothing outside a test iterates the table: daemons read the
    /// keys they own by name.
    #[cfg(test)]
    pub(crate) fn entries<'a>(
        &'a self,
        table: &str,
    ) -> impl Iterator<Item = (&'a str, &'a Value)> + 'a {
        self.tables
            .get(table)
            .into_iter()
            .flat_map(|t| t.iter().map(|(k, v)| (k.as_str(), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_value_changes_count_as_writes() {
        let mut db = StateDb::new();
        db.set("kmp", "epoch", Value::U64(1));
        assert_eq!(db.writes(), 1);
        db.set("kmp", "epoch", Value::U64(1));
        assert_eq!(db.writes(), 1, "no-op write");
        db.set("kmp", "epoch", Value::U64(2));
        assert_eq!(db.writes(), 2);
        assert_eq!(db.value("kmp", "epoch"), Some(&Value::U64(2)));
        // Same bits, other variant: a change.
        db.set("kmp", "epoch", Value::Text("2".into()));
        assert_eq!(db.writes(), 3);
    }

    #[test]
    fn remove_forgets_the_key() {
        let mut db = StateDb::new();
        db.set("leases", "S1", Value::U64(1));
        assert!(db.remove("leases", "S1"));
        assert!(!db.remove("leases", "S1"));
        assert!(db.value("leases", "S1").is_none());
        assert_eq!(db.writes(), 1, "a removal is not a write");
    }
}
