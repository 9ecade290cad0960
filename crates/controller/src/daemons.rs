//! Orchestration daemons: the split controller's per-domain actors.
//!
//! [`Controller`] is the *protocol core* — sealing, verifying, stepping
//! the actual key exchanges, and deciding from its own verdicts when a
//! channel's rejects warrant a mitigation ([`crate::defence`]) — and the
//! orchestration decisions around it (when to roll which key, what
//! register-plane outcomes to publish) live in two daemons in the
//! sonic-swss shape. Daemons never call each other; they coordinate
//! exclusively through the shared [`StateDb`]:
//!
//! * [`KeyManagerDaemon`] drives KMP/local/port key lifecycles for the
//!   switches its replica owns, including versioned bulk rollover
//!   epochs whose progress lives entirely in the `kmp` table — which is
//!   what makes a mid-rollover replica restart resumable;
//! * [`RegisterDaemon`] publishes register-plane outcomes (acks, nacks,
//!   rejects, DoS suspicions) into the `registers` table for anything —
//!   dashboards, peer replicas, tests — to observe without holding a
//!   reference to the core.
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

use crate::controller::{Controller, ControllerEvent, Outgoing};
use crate::statedb::{StateDb, SubscriberId, Value, WriteBatch};
use p4auth_wire::ids::SwitchId;

/// Table names shared by the daemons (and the replica layer).
pub mod tables {
    /// Key-manager rollover state machine.
    pub const KMP: &str = "kmp";
    /// Published local-key material, for peer-replica mirroring.
    pub const KEYS: &str = "keys";
    /// Register-plane outcome counters.
    pub const REGISTERS: &str = "registers";
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
    sub: SubscriberId,
}

impl KeyManagerDaemon {
    /// A key-manager daemon owning `owned` switches, identified as
    /// `label` in fan-out records.
    pub fn new(db: &mut StateDb, mut owned: Vec<SwitchId>, label: impl Into<String>) -> Self {
        owned.sort_unstable();
        owned.dedup();
        KeyManagerDaemon {
            owned,
            label: label.into(),
            sub: db.subscribe(),
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
                Self::status(db, *s),
                Some(KexStatus::Done { epoch }) if epoch == e
            )
        })
    }

    fn status(db: &StateDb, switch: SwitchId) -> Option<KexStatus> {
        KexStatus::parse(db.value(tables::KMP, &switch.to_string())?.as_text()?)
    }

    /// One deterministic step: reconcile the partition against the
    /// `kmp` table, issue whatever exchanges are due, publish finished
    /// key material, and re-drive stalled exchanges (capped backoff
    /// inside the core). Returns the frames to put on the wire.
    ///
    /// All per-switch writes generated by the tick are coalesced into one
    /// [`WriteBatch`] applied after the reconcile loop — one drain (the
    /// poll below), one table write per touched key — instead of a
    /// `db.set` per switch per table. Safe because the loop never reads a
    /// key it wrote in the same tick: each switch's status read precedes
    /// its own (sole) status write, and the cross-switch `partition_done`
    /// check runs after the batch lands.
    pub fn step(&mut self, db: &mut StateDb, core: &mut Controller, now_ns: u64) -> Vec<Outgoing> {
        // Drain the subscription; the reconcile below re-reads the table
        // directly, so a `missed` gap costs nothing extra. A non-empty
        // poll is this daemon's wakeup edge — stamp it into the trace so
        // the statedb-write → daemon-wake → KMP chain is visible.
        let poll = db.poll(self.sub);
        if !poll.updates.is_empty() || poll.missed > 0 {
            core.trace_instant(
                p4auth_telemetry::SpanKind::DaemonWake,
                now_ns,
                poll.updates.len() as u64,
                0,
            );
        }
        let mut out = Vec::new();
        let mut batch = WriteBatch::new();
        let epoch = Self::epoch(db);

        for &switch in &self.owned {
            let key = switch.to_string();
            let status = Self::status(db, switch);

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
                    batch.set(tables::KMP, &key, Value::Text(s.encode()));
                    s
                }
                _ => {
                    // No epoch ever started; still keep published key
                    // material fresh (ad-hoc rollovers happen outside
                    // epochs too, e.g. defence-triggered).
                    Self::publish_key(&mut batch, core, switch);
                    continue;
                }
            };

            if let KexStatus::Pending { epoch, baseline } = status {
                let current = core.local_key_material(switch).map(|(_, v)| v.value());
                let completed = match (baseline, current) {
                    (None, Some(_)) => true,
                    (Some(b), Some(v)) => b != v,
                    _ => false,
                };
                if completed {
                    batch.set(
                        tables::KMP,
                        &key,
                        Value::Text(KexStatus::Done { epoch }.encode()),
                    );
                } else if db.get(tables::LEASES, &key).is_some() {
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
            Self::publish_key(&mut batch, core, switch);
        }
        let changed = db.apply(now_ns, batch);
        if changed > 0 {
            core.trace_instant(p4auth_telemetry::SpanKind::StateDbWrite, now_ns, changed, 0);
        }

        // Record this partition's fan-out latency exactly once per epoch
        // (the `set` is a no-op on every later step, and the db flag
        // survives a replica restart).
        if epoch > 0 && Self::partition_done(db, &self.owned, epoch) {
            let fanout_key = format!("fanout@{}@{epoch}", self.label);
            if db.get(tables::KMP, &fanout_key).is_none() {
                let started = db
                    .value(tables::KMP, &format!("started@{epoch}"))
                    .and_then(Value::as_u64)
                    .unwrap_or(now_ns);
                let latency = now_ns.saturating_sub(started);
                db.set(now_ns, tables::KMP, &fanout_key, Value::U64(latency));
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

    /// Queues `switch`'s current local key for the `keys` table (a no-op
    /// at apply time when unchanged), so peer replicas can mirror it.
    fn publish_key(batch: &mut WriteBatch, core: &Controller, switch: SwitchId) {
        if let Some((k, v)) = core.local_key_material(switch) {
            batch.set(
                tables::KEYS,
                &switch.to_string(),
                Value::Key(k.expose(), v.value()),
            );
        }
    }
}

/// Publishes register-plane outcomes into the `registers` table. Pure
/// db writer: holds no state of its own, so replica restarts are
/// trivially safe.
#[derive(Default)]
pub struct RegisterDaemon;

impl RegisterDaemon {
    /// Folds a batch of controller events into the outcome counters.
    pub fn publish(&self, db: &mut StateDb, now_ns: u64, events: &[ControllerEvent]) {
        for event in events {
            match event {
                ControllerEvent::ValueRead { .. } => Self::bump(db, now_ns, "reads"),
                ControllerEvent::WriteAcked { .. } => Self::bump(db, now_ns, "writes"),
                ControllerEvent::Nacked { .. } => Self::bump(db, now_ns, "nacks"),
                ControllerEvent::Rejected { .. } => Self::bump(db, now_ns, "rejects"),
                ControllerEvent::DosSuspected {
                    switch,
                    outstanding,
                } => {
                    db.set(
                        now_ns,
                        tables::REGISTERS,
                        &format!("dos/{switch}"),
                        Value::U64(*outstanding as u64),
                    );
                }
                _ => {}
            }
        }
    }

    fn bump(db: &mut StateDb, now_ns: u64, key: &str) {
        let cur = db
            .value(tables::REGISTERS, key)
            .and_then(Value::as_u64)
            .unwrap_or(0);
        db.set(now_ns, tables::REGISTERS, key, Value::U64(cur + 1));
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

    #[test]
    fn register_daemon_counts_outcomes() {
        let mut db = StateDb::new();
        let reg = RegisterDaemon;
        let sw = SwitchId::new(4);
        reg.publish(
            &mut db,
            10,
            &[
                ControllerEvent::LocalKeyInstalled(sw),
                ControllerEvent::DosSuspected {
                    switch: sw,
                    outstanding: 33,
                },
            ],
        );
        assert_eq!(db.value(tables::REGISTERS, "reads"), None);
        assert_eq!(db.value(tables::REGISTERS, "dos/S4"), Some(&Value::U64(33)));
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
        let mut km = KeyManagerDaemon::new(&mut db, vec![sw], "r0");

        db.set(0, tables::KMP, "epoch", Value::U64(1));
        db.set(0, tables::KMP, "started@1", Value::U64(0));
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
    /// one table write per touched key (the batch), and a repeated tick
    /// at the same instant adds none (every batched write no-ops).
    #[test]
    fn key_manager_tick_coalesces_writes() {
        let mut db = StateDb::new();
        let mut core = Controller::new(ControllerConfig::default());
        let switches: Vec<SwitchId> = (1..=8).map(SwitchId::new).collect();
        for &sw in &switches {
            core.register_switch(sw, Key64::new(0x5eed ^ sw.value() as u64));
        }
        let mut km = KeyManagerDaemon::new(&mut db, switches.clone(), "r0");
        db.set(0, tables::KMP, "epoch", Value::U64(1));
        db.set(0, tables::KMP, "started@1", Value::U64(0));

        let before = db.writes();
        let out = km.step(&mut db, &mut core, 0);
        assert!(!out.is_empty(), "rollover exchanges must be issued");
        // Exactly one pending entry per switch; no keys exist yet so the
        // keys table stays untouched.
        assert_eq!(db.writes() - before, switches.len() as u64);

        // Re-stepping with nothing changed: the whole batch no-ops.
        let before = db.writes();
        let out = km.step(&mut db, &mut core, 0);
        assert!(out.is_empty(), "no double-issue under batching");
        assert_eq!(db.writes(), before, "idempotent tick writes nothing");
    }
}
