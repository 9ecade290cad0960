//! The orchestration daemon: the split controller's per-partition actor.
//!
//! [`Controller`] is the *protocol core* — sealing, verifying, stepping
//! the actual key exchanges, and deciding from its own verdicts when a
//! channel's rejects warrant a mitigation ([`crate::defence`]) — and the
//! one orchestration decision around it, when to roll which key, lives
//! in a daemon in the sonic-swss shape: one [`KeyManagerDaemon`] per
//! replica, holding no progress of its own. It drives KMP/local/port key
//! lifecycles for the switches its replica owns, including versioned
//! bulk rollover epochs whose progress lives entirely in the `kmp` table
//! of the shared [`StateDb`] — which is what makes a mid-rollover
//! replica restart resumable. Replicas never call each other; the table
//! is the only thing they share.
//!
//! ## Rollover state machine (the `kmp` table)
//!
//! | key            | value                      | meaning |
//! |----------------|----------------------------|---------|
//! | `epoch`        | `U64(e)`                   | bulk-rollover epoch target |
//! | `started@{e}`  | `U64(t_ns)`                | when epoch `e` began |
//! | `S{n}`         | `Text("pending@{e}@{v}")`  | switch awaiting its `e`-rollover; `v` is the key version observed when the epoch started (`-` if no key yet) |
//! | `S{n}`         | `Text("done@{e}")`         | switch finished its `e`-rollover |
//! | `fanout@{l}@{e}` | `U64(latency_ns)`        | replica `l`'s fan-out latency for epoch `e` |
//!
//! The `pending` baseline version is the crux of KMP-retry safety: a
//! switch is *done* exactly when its live key version differs from the
//! baseline recorded at epoch start. A daemon (or a restarted replica)
//! that re-reads the table after a crash cannot double-roll a switch —
//! if the exchange completed before the crash, the version already
//! moved and the switch is immediately marked done; if it didn't, the
//! exchange is still (or again) pending and the core's capped-backoff
//! [`Controller::retry_stalled`] re-drives it.

use crate::controller::{Controller, Outgoing};
use crate::statedb::{StateDb, Value};
use p4auth_wire::ids::SwitchId;

/// Table names shared by the daemon and the replica layer.
pub mod tables {
    /// Key-manager rollover state machine.
    pub const KMP: &str = "kmp";
    /// Channels temporarily leased to another replica (port-key
    /// redirects crossing a partition boundary).
    pub const LEASES: &str = "leases";
}

/// One switch's position in the bulk-rollover state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KexStatus {
    /// Awaiting its rollover for `epoch`; `baseline` is the key version
    /// when the epoch started (`None` = no key yet).
    Pending {
        /// Epoch this entry belongs to.
        epoch: u64,
        /// Key version at epoch start, `None` if the key didn't exist.
        baseline: Option<u8>,
    },
    /// Finished its rollover for `epoch`.
    Done {
        /// Epoch this entry belongs to.
        epoch: u64,
    },
}

impl KexStatus {
    /// Encodes for storage in the `kmp` table.
    pub fn encode(self) -> String {
        match self {
            KexStatus::Pending {
                epoch,
                baseline: Some(v),
            } => format!("pending@{epoch}@{v}"),
            KexStatus::Pending {
                epoch,
                baseline: None,
            } => format!("pending@{epoch}@-"),
            KexStatus::Done { epoch } => format!("done@{epoch}"),
        }
    }

    /// Decodes a `kmp` table status value.
    pub fn parse(s: &str) -> Option<KexStatus> {
        if let Some(rest) = s.strip_prefix("pending@") {
            let (epoch, baseline) = rest.split_once('@')?;
            let epoch = epoch.parse().ok()?;
            let baseline = if baseline == "-" {
                None
            } else {
                Some(baseline.parse().ok()?)
            };
            return Some(KexStatus::Pending { epoch, baseline });
        }
        let epoch = s.strip_prefix("done@")?.parse().ok()?;
        Some(KexStatus::Done { epoch })
    }

    /// The epoch this status belongs to.
    pub fn epoch(self) -> u64 {
        match self {
            KexStatus::Pending { epoch, .. } | KexStatus::Done { epoch } => epoch,
        }
    }
}

/// Drives KMP/local/port key lifecycles for one replica's partition.
/// All decisions re-derive from the `kmp` table each step, so a freshly
/// constructed daemon (replica restart) resumes exactly where the old
/// one stopped. See the module docs for the state machine.
pub struct KeyManagerDaemon {
    owned: Vec<SwitchId>,
    label: String,
    /// [`StateDb::writes`] when this daemon last looked: its wake edge.
    seen_writes: u64,
}

impl KeyManagerDaemon {
    /// A key-manager daemon owning `owned` switches, identified as
    /// `label` in fan-out records. It has seen `db` as it is now, so a
    /// daemon built by a restart does not wake on history.
    pub fn new(db: &StateDb, mut owned: Vec<SwitchId>, label: impl Into<String>) -> Self {
        owned.sort_unstable();
        owned.dedup();
        KeyManagerDaemon {
            owned,
            label: label.into(),
            seen_writes: db.writes(),
        }
    }

    /// The switches this daemon drives (sorted).
    pub fn owned(&self) -> &[SwitchId] {
        &self.owned
    }

    /// The current bulk-rollover epoch target (0 = never started).
    pub fn epoch(db: &StateDb) -> u64 {
        db.value(tables::KMP, "epoch")
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    /// Whether every switch in `owned` has finished epoch `e`.
    pub fn partition_done(db: &StateDb, owned: &[SwitchId], e: u64) -> bool {
        owned.iter().all(|s| {
            matches!(
                Self::status(db, &s.to_string()),
                Some(KexStatus::Done { epoch }) if epoch == e
            )
        })
    }

    /// The `kmp` entry under `key`, a switch id as `Display` writes it.
    fn status(db: &StateDb, key: &str) -> Option<KexStatus> {
        KexStatus::parse(db.value(tables::KMP, key)?.as_text()?)
    }

    /// One deterministic step: reconcile the partition against the
    /// `kmp` table, issue whatever exchanges are due, and re-drive stalled
    /// exchanges (capped backoff inside the core). Returns the frames to
    /// put on the wire.
    ///
    /// Each owned switch writes its own status at most once per step, and
    /// the loop never reads a key it wrote in the same step: a switch's
    /// status read precedes its own (sole) status write, and the
    /// cross-switch `partition_done` check runs after the loop.
    pub fn step(&mut self, db: &mut StateDb, core: &mut Controller, now_ns: u64) -> Vec<Outgoing> {
        // The table changed since this daemon last looked: its wakeup
        // edge — stamp it into the trace so the statedb-write →
        // daemon-wake → KMP chain is visible. The reconcile below re-reads
        // the table directly, so it needs to know only that, not what.
        let before = db.writes();
        if before != self.seen_writes {
            core.trace_instant(
                p4auth_telemetry::SpanKind::DaemonWake,
                now_ns,
                before - self.seen_writes,
                0,
            );
            self.seen_writes = before;
        }
        let mut out = Vec::new();
        let epoch = Self::epoch(db);

        for &switch in &self.owned {
            let key = switch.to_string();
            let status = Self::status(db, &key);

            // A new epoch (or a switch the table has never seen) gets a
            // pending entry with the *current* key version as baseline.
            // Never re-baseline an existing pending entry for the same
            // epoch: the stored baseline is what makes completion
            // detection crash-safe.
            let status = match status {
                Some(s) if s.epoch() == epoch => s,
                _ if epoch > 0 => {
                    let s = KexStatus::Pending {
                        epoch,
                        baseline: core.local_key_material(switch).map(|(_, v)| v.value()),
                    };
                    db.set(tables::KMP, &key, Value::Text(s.encode()));
                    s
                }
                // No epoch ever started: nothing to reconcile.
                _ => continue,
            };

            if let KexStatus::Pending { epoch, baseline } = status {
                let current = core.local_key_material(switch).map(|(_, v)| v.value());
                let completed = match (baseline, current) {
                    (None, Some(_)) => true,
                    (Some(b), Some(v)) => b != v,
                    _ => false,
                };
                if completed {
                    db.set(
                        tables::KMP,
                        &key,
                        Value::Text(KexStatus::Done { epoch }.encode()),
                    );
                } else if db.value(tables::LEASES, &key).is_some() {
                    // Channel leased to another replica (cross-partition
                    // port-key redirect in flight): hands off.
                } else if !core.kex_in_flight(switch) {
                    out.extend(if core.has_local_key(switch) {
                        core.local_key_update(switch)
                    } else {
                        core.local_key_init(switch)
                    });
                }
                // else: exchange in flight; retry_stalled below re-drives
                // it with capped backoff if frames were lost.
            }
        }
        let changed = db.writes() - before;
        if changed > 0 {
            core.trace_instant(p4auth_telemetry::SpanKind::StateDbWrite, now_ns, changed, 0);
        }

        // Record this partition's fan-out latency exactly once per epoch
        // (the `set` is a no-op on every later step, and the db flag
        // survives a replica restart).
        if epoch > 0 && Self::partition_done(db, &self.owned, epoch) {
            let fanout_key = format!("fanout@{}@{epoch}", self.label);
            if db.value(tables::KMP, &fanout_key).is_none() {
                let started = db
                    .value(tables::KMP, &format!("started@{epoch}"))
                    .and_then(Value::as_u64)
                    .unwrap_or(now_ns);
                let latency = now_ns.saturating_sub(started);
                db.set(tables::KMP, &fanout_key, Value::U64(latency));
                core.record_rollover_fanout(latency);
                core.trace_span(
                    p4auth_telemetry::SpanKind::RolloverEpoch,
                    started.min(now_ns),
                    now_ns,
                    epoch,
                    latency,
                );
            }
        }

        out.extend(core.retry_stalled());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, ControllerConfig};
    use p4auth_primitives::Key64;

    #[test]
    fn status_roundtrip() {
        for s in [
            KexStatus::Pending {
                epoch: 3,
                baseline: Some(7),
            },
            KexStatus::Pending {
                epoch: 1,
                baseline: None,
            },
            KexStatus::Done { epoch: 9 },
        ] {
            assert_eq!(KexStatus::parse(&s.encode()), Some(s));
        }
        assert_eq!(KexStatus::parse("garbage"), None);
        assert_eq!(KexStatus::parse("pending@x@1"), None);
    }

    /// The key-manager daemon kicks off local-key init for a fresh
    /// switch, doesn't double-issue while the exchange is in flight, and
    /// records pending state in the table.
    #[test]
    fn key_manager_initiates_and_does_not_double_issue() {
        let mut db = StateDb::new();
        let mut core = Controller::new(ControllerConfig::default());
        let sw = SwitchId::new(1);
        core.register_switch(sw, Key64::new(0x5eed));
        let mut km = KeyManagerDaemon::new(&db, vec![sw], "r0");

        db.set(tables::KMP, "epoch", Value::U64(1));
        db.set(tables::KMP, "started@1", Value::U64(0));
        // First step: the daemon starts EAK (one frame) and the core's
        // retry pass re-drives it once for free (the first retry has no
        // backoff delay) — two frames total, still ONE exchange.
        let out = km.step(&mut db, &mut core, 0);
        assert_eq!(out.len(), 2, "EAK salt #1 + free first retry");
        assert_eq!(
            KexStatus::parse(db.value(tables::KMP, "S1").unwrap().as_text().unwrap()),
            Some(KexStatus::Pending {
                epoch: 1,
                baseline: None
            })
        );
        // Second step at the same instant: exchange in flight, backoff
        // not yet elapsed — the daemon must not start a second exchange
        // and the retry pass must stay quiet.
        let out = km.step(&mut db, &mut core, 0);
        assert!(out.is_empty(), "no double-issue: {}", out.len());
        assert!(core.kex_in_flight(sw));
    }

    /// One orchestrator tick over a multi-switch partition lands exactly
    /// one table write per switch, and a repeated tick at the same
    /// instant adds none (every write no-ops).
    #[test]
    fn key_manager_tick_writes_once_per_switch() {
        let mut db = StateDb::new();
        let mut core = Controller::new(ControllerConfig::default());
        let switches: Vec<SwitchId> = (1..=8).map(SwitchId::new).collect();
        for &sw in &switches {
            core.register_switch(sw, Key64::new(0x5eed ^ sw.value() as u64));
        }
        let mut km = KeyManagerDaemon::new(&db, switches.clone(), "r0");
        db.set(tables::KMP, "epoch", Value::U64(1));
        db.set(tables::KMP, "started@1", Value::U64(0));

        let before = db.writes();
        let out = km.step(&mut db, &mut core, 0);
        assert!(!out.is_empty(), "rollover exchanges must be issued");
        // Exactly one pending entry per switch, and nothing else.
        assert_eq!(db.writes() - before, switches.len() as u64);
        assert_eq!(db.entries(tables::KMP).count(), 2 + switches.len());

        // Re-stepping with nothing changed: every write no-ops.
        let before = db.writes();
        let out = km.step(&mut db, &mut core, 0);
        assert!(out.is_empty(), "no double-issue");
        assert_eq!(db.writes(), before, "idempotent tick writes nothing");
    }

    /// `DaemonWake` fires exactly when the table changed since the
    /// daemon's previous step, carrying the exact number of writes it
    /// had not seen (its own included); `StateDbWrite` carries what the
    /// step itself wrote. Each step runs at its own instant, so a span's
    /// `start_ns` names the step that recorded it.
    #[test]
    fn daemon_wakes_on_exactly_the_writes_it_has_not_seen() {
        use crate::replica::ReplicaSet;
        use p4auth_telemetry::{Registry, SpanKind};
        use std::sync::Arc;

        let seeds: Vec<(SwitchId, Key64)> = (1..=6)
            .map(|i| (SwitchId::new(i), Key64::new(0x5eed_0000 + u64::from(i))))
            .collect();
        let registry = Arc::new(Registry::with_capacities(0, 256));
        let mut set = ReplicaSet::new(2, ControllerConfig::default(), &seeds);
        set.set_telemetry(registry.clone());
        let owned: Vec<u64> = set
            .replicas()
            .iter()
            .map(|r| r.owned().len() as u64)
            .collect();
        assert!(owned[0] > 0 && owned[1] > 0, "{owned:?}");
        let spans_at = |t: u64| -> Vec<(SpanKind, u64)> {
            let wanted = [SpanKind::DaemonWake, SpanKind::StateDbWrite];
            registry
                .trace()
                .records()
                .iter()
                .filter(|r| r.start_ns == t && wanted.contains(&r.kind))
                .map(|r| (r.kind, r.arg_a))
                .collect()
        };

        set.step(10);
        assert!(
            spans_at(10).is_empty(),
            "no epoch: nothing written, nobody woken"
        );
        assert_eq!(set.db().writes(), 0);

        assert_eq!(set.start_bulk_rollover(20), Some(1));
        set.step_replica(0, 30);
        assert_eq!(
            spans_at(30),
            [
                (SpanKind::DaemonWake, 2), // `epoch` and `started@1`
                (SpanKind::StateDbWrite, owned[0]),
            ]
        );
        set.step_replica(0, 40);
        assert_eq!(
            spans_at(40),
            [(SpanKind::DaemonWake, owned[0])],
            "woken by its own pending entries; exchanges in flight, nothing to write"
        );
        set.step_replica(0, 50);
        assert!(spans_at(50).is_empty(), "nothing new");

        set.step_replica(1, 60);
        assert_eq!(
            spans_at(60),
            [
                (SpanKind::DaemonWake, 2 + owned[0]),
                (SpanKind::StateDbWrite, owned[1]),
            ]
        );
        // Replica 0 has not seen replica 1's writes; a daemon rebuilt now
        // starts from the table as it is and does not wake on them.
        set.restart_replica(0);
        set.step_replica(0, 70);
        assert!(
            spans_at(70).is_empty(),
            "a restarted daemon does not wake on history"
        );
        assert_eq!(set.db().writes(), 2 + owned[0] + owned[1]);
    }
}
