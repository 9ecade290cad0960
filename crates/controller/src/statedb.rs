//! A deterministic in-process pub/sub state table (sonic-swss shape).
//!
//! Production SDN control planes decompose orchestration into per-domain
//! daemons that coordinate exclusively through a shared state database —
//! no daemon calls another, they only read and write keyed tables and
//! react to what changed. [`StateDb`] is that coordination point for the
//! split controller: a set of named tables of versioned keyed entries,
//! an append-only update log, and per-subscriber cursors.
//!
//! Everything is deterministic by construction:
//!
//! * tables and keys live in `BTreeMap`s, so iteration order is the key
//!   order, never the hash-seed order;
//! * every write is stamped with the *simulation* clock passed in by the
//!   caller — the table itself never reads a wall clock;
//! * subscribers see updates strictly in write order via a cursor into
//!   the shared log, so two subscribers polling at the same sim-time see
//!   the same sequence.
//!
//! Writes are idempotent: storing a value equal to the current one
//! neither bumps the entry version nor appends to the log. Daemons lean
//! on this — a restarted daemon replays its decision procedure against
//! the table and the no-op writes vanish, which is what makes recovery
//! "resume from the state table" instead of "carefully avoid repeating
//! yourself".
//!
//! The log is bounded (like every other queue in this workspace): when
//! it overflows, the oldest updates are evicted and a slow subscriber's
//! next [`StateDb::poll`] reports how many it missed so it can fall back
//! to a full table scan.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A value stored in the state table.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub enum Value {
    /// An unsigned counter / timestamp / enum discriminant.
    U64(u64),
    /// A small status string (state-machine phase, e.g. `done@3`).
    Text(String),
    /// Key material: raw key bits plus the key-version tag. Published by
    /// the key-manager daemon so peer replicas can mirror local keys.
    Key(u64, u8),
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

    /// The key material, if this is a [`Value::Key`].
    pub fn as_key(&self) -> Option<(u64, u8)> {
        match self {
            Value::Key(bits, version) => Some((*bits, *version)),
            _ => None,
        }
    }
}

/// One versioned entry in a table.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Entry {
    /// Per-key write counter, starting at 1 on first write.
    pub version: u64,
    /// Sim-time of the last (value-changing) write.
    pub written_at_ns: u64,
    /// Current value.
    pub value: Value,
}

/// One record in the shared update log.
#[derive(Clone, PartialEq, Eq, Debug, Serialize)]
pub struct Update {
    /// Global write sequence (monotone across all tables).
    pub seq: u64,
    /// Sim-time of the write.
    pub t_ns: u64,
    /// Table written (the table map's own name: a log record shares it
    /// instead of copying it).
    pub table: Arc<str>,
    /// Key written (shared with the table's key the same way).
    pub key: Arc<str>,
    /// Entry version after the write.
    pub version: u64,
    /// Value written.
    pub value: Value,
}

/// Handle identifying one subscriber's cursor into the update log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SubscriberId(usize);

/// The updates a subscriber's [`StateDb::poll`] drained, plus how many
/// it missed to log eviction (0 unless the subscriber fell behind the
/// bounded log; a non-zero `missed` means "re-scan the tables").
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Poll {
    /// Updates since the previous poll, in write order.
    pub updates: Vec<Update>,
    /// Updates evicted before this subscriber saw them.
    pub missed: u64,
}

/// An ordered set of writes accumulated during one daemon tick and
/// applied in one [`StateDb::apply`] call.
///
/// Writing the same `table/key` twice coalesces to a single write (the
/// last value wins, at the first write's position), so a daemon that
/// reconsiders a decision mid-tick still lands exactly one table write
/// per key per tick — the batching contract the key manager relies on
/// when it fans a rollover out to hundreds of switches.
#[derive(Default, Debug)]
pub struct WriteBatch {
    writes: Vec<(String, String, Value)>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WriteBatch::default()
    }

    /// Queues `table/key = value`, replacing any value already queued for
    /// the same key in this batch.
    pub fn set(&mut self, table: &str, key: &str, value: Value) {
        if let Some(w) = self
            .writes
            .iter_mut()
            .find(|(t, k, _)| t == table && k == key)
        {
            w.2 = value;
        } else {
            self.writes
                .push((table.to_string(), key.to_string(), value));
        }
    }

    /// Number of distinct keys queued.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }
}

/// The deterministic pub/sub state table. See the module docs.
pub struct StateDb {
    tables: BTreeMap<Arc<str>, BTreeMap<Arc<str>, Entry>>,
    log: std::collections::VecDeque<Update>,
    log_capacity: usize,
    next_seq: u64,
    /// Per-subscriber: the next log `seq` this subscriber has not seen.
    cursors: Vec<u64>,
}

impl Default for StateDb {
    fn default() -> Self {
        StateDb::new()
    }
}

impl StateDb {
    /// Default bound on the update log; slow subscribers falling further
    /// behind than this must re-scan (see [`Poll::missed`]).
    pub const DEFAULT_LOG_CAPACITY: usize = 4096;

    /// An empty state table with the default log bound.
    pub fn new() -> Self {
        StateDb::with_log_capacity(Self::DEFAULT_LOG_CAPACITY)
    }

    /// An empty state table whose update log keeps at most `capacity`
    /// records (minimum 1).
    pub fn with_log_capacity(capacity: usize) -> Self {
        StateDb {
            tables: BTreeMap::new(),
            log: std::collections::VecDeque::new(),
            log_capacity: capacity.max(1),
            next_seq: 0,
            cursors: Vec::new(),
        }
    }

    /// Writes `table/key = value` at sim-time `now_ns`, returning the
    /// entry's version after the write. Writing the value already stored
    /// is a no-op (version unchanged, nothing logged).
    pub fn set(&mut self, now_ns: u64, table: &str, key: &str, value: Value) -> u64 {
        // A write under names the maps already hold shares their `Arc`s
        // (with the log record too) instead of copying the strings.
        let held = self.tables.get_key_value(table).map(|(t, _)| t.clone());
        let table = held.unwrap_or_else(|| {
            let table: Arc<str> = Arc::from(table);
            self.tables.insert(table.clone(), BTreeMap::new());
            table
        });
        let entries = self.tables.get_mut(&*table).expect("held or just inserted");
        let held = entries.get_key_value(key).map(|(k, _)| k.clone());
        let (key, version) = match held {
            Some(key) => {
                let entry = entries.get_mut(&*key).expect("held");
                if entry.value == value {
                    return entry.version;
                }
                entry.version += 1;
                entry.written_at_ns = now_ns;
                entry.value = value.clone();
                (key, entry.version)
            }
            None => {
                let key: Arc<str> = Arc::from(key);
                let first = Entry {
                    version: 1,
                    written_at_ns: now_ns,
                    value: value.clone(),
                };
                entries.insert(key.clone(), first);
                (key, 1)
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.log.len() == self.log_capacity {
            self.log.pop_front();
        }
        self.log.push_back(Update {
            seq,
            t_ns: now_ns,
            table,
            key,
            version,
            value,
        });
        version
    }

    /// Applies a batch in queue order at one timestamp, returning the
    /// number of value-changing writes (no-op writes — values already
    /// stored — are dropped here exactly as in [`StateDb::set`]).
    pub fn apply(&mut self, now_ns: u64, batch: WriteBatch) -> u64 {
        let mut changed = 0;
        for (table, key, value) in batch.writes {
            let before = self.next_seq;
            self.set(now_ns, &table, &key, value);
            changed += self.next_seq - before;
        }
        changed
    }

    /// Removes `table/key`, logging a tombstone is *not* supported — the
    /// daemons model completion with terminal status values instead, so
    /// the table history stays monotone. Returns whether the key existed.
    pub fn remove(&mut self, table: &str, key: &str) -> bool {
        self.tables
            .get_mut(table)
            .is_some_and(|t| t.remove(key).is_some())
    }

    /// The current entry at `table/key`, if any.
    pub fn get(&self, table: &str, key: &str) -> Option<&Entry> {
        self.tables.get(table)?.get(key)
    }

    /// Convenience: the current value at `table/key`, if any.
    pub fn value(&self, table: &str, key: &str) -> Option<&Value> {
        self.get(table, key).map(|e| &e.value)
    }

    /// All entries of `table` in key order (deterministic).
    pub fn entries<'a>(&'a self, table: &str) -> impl Iterator<Item = (&'a str, &'a Entry)> + 'a {
        self.tables
            .get(table)
            .into_iter()
            .flat_map(|t| t.iter().map(|(k, e)| (&**k, e)))
    }

    /// Total writes accepted so far (no-op writes excluded).
    pub fn writes(&self) -> u64 {
        self.next_seq
    }

    /// Registers a new subscriber whose cursor starts at the log head
    /// (it will only see writes made after this call).
    pub fn subscribe(&mut self) -> SubscriberId {
        self.cursors.push(self.next_seq);
        SubscriberId(self.cursors.len() - 1)
    }

    /// Drains the updates `sub` has not yet seen, in write order. If the
    /// bounded log already evicted some of them, `missed` counts the gap
    /// and the subscriber should re-scan the tables it cares about.
    pub fn poll(&mut self, sub: SubscriberId) -> Poll {
        let cursor = self.cursors[sub.0];
        let oldest = self.log.front().map_or(self.next_seq, |u| u.seq);
        let missed = oldest.saturating_sub(cursor);
        let updates: Vec<Update> = self
            .log
            .iter()
            .filter(|u| u.seq >= cursor)
            .cloned()
            .collect();
        self.cursors[sub.0] = self.next_seq;
        Poll { updates, missed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_count_value_changes_only() {
        let mut db = StateDb::new();
        assert_eq!(db.set(10, "kmp", "epoch", Value::U64(1)), 1);
        assert_eq!(db.set(20, "kmp", "epoch", Value::U64(1)), 1, "no-op write");
        assert_eq!(db.set(30, "kmp", "epoch", Value::U64(2)), 2);
        let e = db.get("kmp", "epoch").unwrap();
        assert_eq!(e.version, 2);
        assert_eq!(e.written_at_ns, 30, "no-op write must not restamp");
        assert_eq!(db.writes(), 2);
    }

    #[test]
    fn subscribers_see_only_writes_after_subscription_in_order() {
        let mut db = StateDb::new();
        db.set(0, "t", "before", Value::U64(0));
        let sub = db.subscribe();
        assert!(db.poll(sub).updates.is_empty());
        db.set(1, "t", "a", Value::U64(1));
        db.set(2, "t", "a", Value::U64(1)); // no-op: not delivered
        db.set(3, "u", "b", Value::Text("x".into()));
        let poll = db.poll(sub);
        assert_eq!(poll.missed, 0);
        let keys: Vec<_> = poll
            .updates
            .iter()
            .map(|u| format!("{}/{}", u.table, u.key))
            .collect();
        assert_eq!(keys, ["t/a", "u/b"]);
        assert!(db.poll(sub).updates.is_empty(), "cursor advanced");
    }

    #[test]
    fn two_subscribers_have_independent_cursors() {
        let mut db = StateDb::new();
        let s1 = db.subscribe();
        db.set(1, "t", "a", Value::U64(1));
        let s2 = db.subscribe();
        db.set(2, "t", "b", Value::U64(2));
        assert_eq!(db.poll(s1).updates.len(), 2);
        assert_eq!(db.poll(s2).updates.len(), 1);
    }

    #[test]
    fn bounded_log_reports_missed_updates() {
        let mut db = StateDb::with_log_capacity(2);
        let sub = db.subscribe();
        for i in 0..5u64 {
            db.set(i, "t", &format!("k{i}"), Value::U64(i));
        }
        let poll = db.poll(sub);
        assert_eq!(poll.missed, 3, "evicted before the subscriber polled");
        assert_eq!(poll.updates.len(), 2, "only the retained tail");
        // The table itself is complete even though the log is not.
        assert_eq!(db.entries("t").count(), 5);
        // After the catch-up poll, the subscriber is current again.
        assert_eq!(db.poll(sub), Poll::default());
    }

    #[test]
    fn entries_iterate_in_key_order() {
        let mut db = StateDb::new();
        db.set(0, "keys", "S2", Value::Key(2, 0));
        db.set(0, "keys", "S10", Value::Key(10, 0));
        db.set(0, "keys", "S1", Value::Key(1, 0));
        let keys: Vec<_> = db.entries("keys").map(|(k, _)| k.to_string()).collect();
        // Lexicographic (BTreeMap) order — stable across runs, which is
        // what the determinism gate needs; daemons that want numeric
        // order sort their own owned-switch lists.
        assert_eq!(keys, ["S1", "S10", "S2"]);
    }

    #[test]
    fn batch_applies_in_order_and_coalesces_per_key() {
        let mut db = StateDb::new();
        let sub = db.subscribe();
        let mut batch = WriteBatch::new();
        batch.set("kmp", "S1", Value::Text("pending@1@-".into()));
        batch.set("keys", "S1", Value::Key(7, 0));
        // Reconsidered mid-tick: coalesces onto the first S1 write.
        batch.set("kmp", "S1", Value::Text("done@1".into()));
        assert_eq!(batch.len(), 2);
        assert_eq!(db.apply(100, batch), 2);
        let keys: Vec<_> = db
            .poll(sub)
            .updates
            .iter()
            .map(|u| format!("{}/{}={:?}", u.table, u.key, u.value))
            .collect();
        assert_eq!(
            keys,
            [
                "kmp/S1=Text(\"done@1\")".to_string(),
                "keys/S1=Key(7, 0)".to_string()
            ]
        );
    }

    #[test]
    fn batch_noop_writes_vanish() {
        let mut db = StateDb::new();
        db.set(0, "kmp", "epoch", Value::U64(3));
        let mut batch = WriteBatch::new();
        batch.set("kmp", "epoch", Value::U64(3)); // already stored
        batch.set("kmp", "started@3", Value::U64(50));
        assert_eq!(db.apply(50, batch), 1, "only the new key lands");
        assert_eq!(db.writes(), 2);
        assert_eq!(
            db.get("kmp", "epoch").unwrap().written_at_ns,
            0,
            "no-op batch write must not restamp"
        );
    }

    #[test]
    fn empty_batch_is_free() {
        let mut db = StateDb::new();
        let batch = WriteBatch::new();
        assert!(batch.is_empty());
        assert_eq!(db.apply(9, batch), 0);
        assert_eq!(db.writes(), 0);
    }

    #[test]
    fn remove_forgets_the_key() {
        let mut db = StateDb::new();
        db.set(0, "leases", "S1", Value::U64(1));
        assert!(db.remove("leases", "S1"));
        assert!(!db.remove("leases", "S1"));
        assert!(db.get("leases", "S1").is_none());
    }
}
