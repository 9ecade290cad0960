//! The replicated control plane's orchestration state table.
//!
//! [`StateDb`] holds what a restarted daemon must re-read to carry on
//! where the old one stopped: a bulk-rollover epoch's progress (`kmp`,
//! documented with the state machine in [`daemons`](crate::daemons)) —
//! the epoch target, when each epoch started, one [`KexStatus`] per
//! switch and one fan-out latency per `(replica, epoch)` — plus a count
//! of value-changing writes. It holds nothing else: every field has a
//! writer *and* a non-test reader. Register-plane outcomes are counted in
//! `ControllerStats` and the `ctrl_*` telemetry series and returned to
//! the caller as events; key material stays in the cores, and so do
//! in-flight port-key redirects (the replica set derives a switch's
//! lease from its home core). A field without a reader is a write every
//! op pays for nothing, so whoever needs one adds it together with what
//! reads it.
//!
//! Everything is deterministic by construction: the per-key fields are
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

use crate::daemons::KexStatus;
use p4auth_wire::ids::SwitchId;
use std::collections::BTreeMap;

/// The deterministic orchestration state table. See the module docs.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct StateDb {
    /// Bulk-rollover epoch target (0 = never started).
    epoch: u64,
    /// When each epoch began, in sim-ns.
    started: BTreeMap<u64, u64>,
    /// Each switch's position in the rollover state machine.
    status: BTreeMap<SwitchId, KexStatus>,
    /// Fan-out latency per `(replica index, epoch)`, in sim-ns.
    fanout: BTreeMap<(usize, u64), u64>,
    writes: u64,
}

/// Stores `value` under `key`, counting the write if it changed the map.
fn put<K: Ord, V: Copy + PartialEq>(writes: &mut u64, map: &mut BTreeMap<K, V>, key: K, value: V) {
    *writes += u64::from(map.insert(key, value) != Some(value));
}

impl StateDb {
    /// An empty state table.
    pub fn new() -> Self {
        StateDb::default()
    }

    /// The current bulk-rollover epoch target (0 = never started).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// When `epoch` began, if it did.
    pub fn started(&self, epoch: u64) -> Option<u64> {
        self.started.get(&epoch).copied()
    }

    /// `switch`'s rollover status, if the table has seen it.
    pub fn status(&self, switch: SwitchId) -> Option<KexStatus> {
        self.status.get(&switch).copied()
    }

    /// Replica `replica`'s fan-out latency for `epoch`, once recorded.
    pub fn fanout(&self, replica: usize, epoch: u64) -> Option<u64> {
        self.fanout.get(&(replica, epoch)).copied()
    }

    /// Total writes accepted so far (no-op writes excluded).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Opens `epoch` at `now_ns`: the epoch target and its start time,
    /// one write each.
    pub fn start_epoch(&mut self, epoch: u64, now_ns: u64) {
        self.writes += u64::from(std::mem::replace(&mut self.epoch, epoch) != epoch);
        put(&mut self.writes, &mut self.started, epoch, now_ns);
    }

    /// Stores `switch`'s rollover status.
    pub fn set_status(&mut self, switch: SwitchId, status: KexStatus) {
        put(&mut self.writes, &mut self.status, switch, status);
    }

    /// Records replica `replica`'s fan-out latency for `epoch`.
    pub fn set_fanout(&mut self, replica: usize, epoch: u64, latency_ns: u64) {
        put(
            &mut self.writes,
            &mut self.fanout,
            (replica, epoch),
            latency_ns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_value_changes_count_as_writes() {
        let mut db = StateDb::new();
        db.start_epoch(1, 10);
        assert_eq!(db.writes(), 2, "epoch and its start time");
        db.start_epoch(1, 10);
        assert_eq!(db.writes(), 2, "no-op write");
        db.start_epoch(1, 20);
        assert_eq!(db.writes(), 3, "only the start time moved");
        assert_eq!((db.epoch(), db.started(1)), (1, Some(20)));

        let (sw, pending) = (
            SwitchId::new(1),
            KexStatus::Pending {
                epoch: 1,
                baseline: Some(0),
            },
        );
        db.set_status(sw, pending);
        db.set_status(sw, pending);
        assert_eq!(db.writes(), 4);
        // Same epoch, other variant: a change.
        db.set_status(sw, KexStatus::Done { epoch: 1 });
        assert_eq!(db.writes(), 5);
        assert_eq!(db.status(sw), Some(KexStatus::Done { epoch: 1 }));

        db.set_fanout(0, 1, 7);
        db.set_fanout(0, 1, 7);
        assert_eq!(
            (db.writes(), db.fanout(0, 1), db.fanout(1, 1)),
            (6, Some(7), None)
        );
    }
}
