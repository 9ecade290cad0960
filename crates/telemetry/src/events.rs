//! Typed structured events and the bounded ring-buffer [`EventLog`].
//!
//! Events carry only primitive fields (ids, small enums, `&'static str`
//! step names) so this crate stays at the bottom of the dependency graph:
//! protocol crates map their own types onto these at the call site.

use crate::codec::{ByteReader, DecodeError};
use crate::ring::Ring;
use std::sync::Mutex;

/// Why a digest verification rejected a message (telemetry-side mirror of
/// the auth layer's reject reasons).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectKind {
    /// The digest did not match (forged or corrupted message).
    BadDigest,
    /// No key is installed for the channel.
    NoKey,
    /// The sequence number did not advance the replay window.
    Replayed,
    /// The frame did not decode as a message at all (framing garbage).
    ///
    /// Deliberately distinct from [`RejectKind::BadDigest`]: line noise
    /// must never look like an active MAC-forgery attack to consumers of
    /// the reject stream (e.g. the controller's adaptive defence loop).
    Malformed,
    /// The channel is quarantined by the controller's defence loop;
    /// traffic on it is dropped until a fresh key is installed.
    Quarantined,
}

impl RejectKind {
    /// Inverse of `self as u8`, the `P4TS` encoding.
    fn from_wire(byte: u8) -> Result<Self, DecodeError> {
        Ok(match byte {
            0 => RejectKind::BadDigest,
            1 => RejectKind::NoKey,
            2 => RejectKind::Replayed,
            3 => RejectKind::Malformed,
            4 => RejectKind::Quarantined,
            tag => return Err(DecodeError::BadTag(tag)),
        })
    }

    /// Stable snake_case name used in JSON snapshots and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectKind::BadDigest => "bad_digest",
            RejectKind::NoKey => "no_key",
            RejectKind::Replayed => "replayed",
            RejectKind::Malformed => "malformed",
            RejectKind::Quarantined => "quarantined",
        }
    }
}

/// Why the simulator dropped (or lost) a frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropCause {
    /// A MitM tap dropped it.
    Tap,
    /// The egress port was down or unconnected.
    Undeliverable,
}

impl DropCause {
    /// Inverse of `self as u8`, the `P4TS` encoding.
    fn from_wire(byte: u8) -> Result<Self, DecodeError> {
        Ok(match byte {
            0 => DropCause::Tap,
            1 => DropCause::Undeliverable,
            tag => return Err(DecodeError::BadTag(tag)),
        })
    }

    /// Stable snake_case name used in JSON snapshots.
    pub fn as_str(self) -> &'static str {
        match self {
            DropCause::Tap => "tap",
            DropCause::Undeliverable => "undeliverable",
        }
    }
}

/// A structured telemetry event.
///
/// Node/switch identities are raw `u16` values and ports raw `u8`s (the
/// wire-level representations) to keep this crate dependency-free.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Event {
    /// A message failed digest/replay verification.
    DigestRejected {
        /// Claimed sender.
        peer: u16,
        /// Channel (ingress port number; 0 = CPU/controller channel).
        channel: u8,
        /// Why it was rejected.
        reason: RejectKind,
    },
    /// A replayed sequence number was caught by the replay window.
    ReplayDetected {
        /// Claimed sender.
        peer: u16,
        /// Channel (ingress port number).
        channel: u8,
        /// Highest previously accepted sequence number.
        last_accepted: u64,
        /// The stale sequence number that arrived.
        got: u64,
    },
    /// An alert left the rate limiter toward the controller.
    AlertEmitted {
        /// Switch that raised the alert.
        source: u16,
        /// The underlying reject reason.
        reason: RejectKind,
    },
    /// The rate limiter suppressed an alert (§VIII DoS hardening).
    AlertSuppressed {
        /// Switch that suppressed it.
        source: u16,
    },
    /// A key was derived/installed on a switch.
    KeyDerived {
        /// The switch installing the key.
        switch: u16,
        /// Port the key protects (0 = the switch-local / C-DP key).
        port: u8,
        /// Key version tag installed.
        version: u8,
    },
    /// One step of a key-exchange protocol executed.
    KexStep {
        /// The node performing the step.
        node: u16,
        /// Step name (e.g. `"eak_salt"`, `"adhkd_offer"`).
        step: &'static str,
    },
    /// The simulator delivered a frame to a node.
    FrameDelivered {
        /// Destination node.
        node: u16,
        /// Destination port.
        port: u8,
        /// Frame length in bytes.
        bytes: u32,
    },
    /// The simulator dropped a frame.
    FrameDropped {
        /// Sending node.
        node: u16,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// A packet needed pipeline recirculations.
    RecircUsed {
        /// The switch whose pipeline recirculated.
        switch: u16,
        /// Recirculations consumed by this packet.
        count: u32,
    },
    /// The controller's adaptive defence acted on a (peer, channel).
    DefenceAction {
        /// The peer whose channel triggered the defence.
        peer: u16,
        /// The channel (ingress port number; 0 = CPU/controller channel).
        channel: u8,
        /// Action name (e.g. `"rollover"`, `"quarantine"`, `"release"`).
        action: &'static str,
    },
}

/// One field of an [`Event`] as the encoders see it: the `P4TS` codec
/// writes the integer at its width (an enum as its byte), JSON writes the
/// number (an enum as its name).
pub(crate) enum Field {
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    Str(&'static str),
    Enum(u8, &'static str),
}

/// Expands the wire table below — `P4TS` tag, variant, JSON type name,
/// and the fields with their wire types in the order they are written —
/// into the type-name lookup, the field walk both encoders share, and
/// the `P4TS` decoder, so a new variant is one new row.
macro_rules! event_wire {
    ($($tag:literal $variant:ident $kind:literal ($($field:ident: $ty:ident),*);)*) => {
        impl Event {
            /// Stable snake_case type tag used in JSON snapshots.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// Calls `f` with the `"type"` tag and then each field.
            pub(crate) fn for_each_field(&self, mut f: impl FnMut(&'static str, Field)) {
                match *self {
                    $(Event::$variant { $($field),* } => {
                        f("type", Field::Enum($tag, $kind));
                        $(f(stringify!($field), event_wire!(@put $ty $field));)*
                    })*
                }
            }

            /// Reads one event (tag, then fields) from a `P4TS` stream.
            pub(crate) fn decode(r: &mut ByteReader<'_>) -> Result<Event, DecodeError> {
                Ok(match r.u8()? {
                    $($tag => Event::$variant { $($field: event_wire!(@get $ty r)),* },)*
                    tag => return Err(DecodeError::BadTag(tag)),
                })
            }
        }
    };
    (@put Reject $v:ident) => { Field::Enum($v as u8, $v.as_str()) };
    (@put Drop $v:ident) => { Field::Enum($v as u8, $v.as_str()) };
    (@put $ty:ident $v:ident) => { Field::$ty($v) };
    (@get U8 $r:ident) => { $r.u8()? };
    (@get U16 $r:ident) => { $r.u16()? };
    (@get U32 $r:ident) => { $r.u32()? };
    (@get U64 $r:ident) => { $r.u64()? };
    (@get Str $r:ident) => { crate::snapshot::bin::static_str($r)? };
    (@get Reject $r:ident) => { RejectKind::from_wire($r.u8()?)? };
    (@get Drop $r:ident) => { DropCause::from_wire($r.u8()?)? };
}

event_wire! {
    0 DigestRejected "digest_rejected" (peer: U16, channel: U8, reason: Reject);
    1 ReplayDetected "replay_detected" (peer: U16, channel: U8, last_accepted: U64, got: U64);
    2 AlertEmitted "alert_emitted" (source: U16, reason: Reject);
    3 AlertSuppressed "alert_suppressed" (source: U16);
    4 KeyDerived "key_derived" (switch: U16, port: U8, version: U8);
    5 KexStep "kex_step" (node: U16, step: Str);
    6 FrameDelivered "frame_delivered" (node: U16, port: U8, bytes: U32);
    7 FrameDropped "frame_dropped" (node: U16, cause: Drop);
    8 RecircUsed "recirc_used" (switch: U16, count: U32);
    9 DefenceAction "defence_action" (peer: U16, channel: U8, action: Str);
}

/// An [`Event`] with the simulated time it was recorded at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EventRecord {
    /// Simulated time of the event (ns).
    pub t_ns: u64,
    /// The event.
    pub event: Event,
}

/// A bounded ring buffer of [`EventRecord`]s.
///
/// Capacity 0 (the default, [`EventLog::disabled`]) turns every
/// [`EventLog::record`] into a branch-and-return — event logging is
/// opt-in per registry, so benchmarks pay near-nothing for the
/// instrumentation being compiled in. When full, the oldest record is
/// evicted and counted in [`EventLog::overflowed`].
#[derive(Debug, Default)]
pub struct EventLog {
    capacity: usize,
    ring: Mutex<Ring<EventRecord>>,
}

impl EventLog {
    /// A log that records nothing (capacity 0).
    pub fn disabled() -> Self {
        EventLog::default()
    }

    /// A log keeping the most recent `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            capacity,
            ring: Mutex::default(),
        }
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring<EventRecord>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records `event` at simulated time `t_ns`. No-op when disabled.
    pub fn record(&self, t_ns: u64, event: Event) {
        if self.capacity == 0 {
            return;
        }
        self.lock().push(self.capacity, EventRecord { t_ns, event });
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many records were evicted because the buffer was full.
    pub fn overflowed(&self) -> u64 {
        self.lock().dropped()
    }

    /// A copy of the current contents, oldest first.
    pub fn to_vec(&self) -> Vec<EventRecord> {
        self.lock().iter().cloned().collect()
    }

    /// Removes and returns the current contents, oldest first.
    pub fn drain(&self) -> Vec<EventRecord> {
        self.lock().drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let log = EventLog::disabled();
        assert!(!log.enabled());
        log.record(1, Event::AlertSuppressed { source: 1 });
        assert!(log.is_empty());
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let log = EventLog::with_capacity(2);
        for i in 0..3u16 {
            log.record(u64::from(i), Event::AlertSuppressed { source: i });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.overflowed(), 1);
        let records = log.to_vec();
        assert_eq!(records[0].t_ns, 1);
        assert_eq!(records[1].t_ns, 2);
        assert_eq!(log.drain().len(), 2);
        assert!(log.is_empty());
    }

    #[test]
    fn event_kinds_are_stable() {
        let e = Event::DigestRejected {
            peer: 2,
            channel: 1,
            reason: RejectKind::BadDigest,
        };
        assert_eq!(e.kind(), "digest_rejected");
        assert_eq!(RejectKind::Replayed.as_str(), "replayed");
        assert_eq!(RejectKind::Malformed.as_str(), "malformed");
        assert_eq!(RejectKind::Quarantined.as_str(), "quarantined");
        assert_eq!(DropCause::Tap.as_str(), "tap");
        let d = Event::DefenceAction {
            peer: 1,
            channel: 0,
            action: "rollover",
        };
        assert_eq!(d.kind(), "defence_action");
    }
}
