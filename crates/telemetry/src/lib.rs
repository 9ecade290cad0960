//! # p4auth-telemetry
//!
//! A lightweight, dependency-free metrics and structured-event layer for
//! the P4Auth reproduction.
//!
//! The workspace's protocol crates (simulator, data plane, agent,
//! controller) accept an optional shared [`Registry`]; when one is
//! attached they record what the paper's evaluation needs to observe —
//! verify accept/reject counts per reject reason, alert emit/suppress
//! decisions, frames delivered/dropped, per-packet pipeline usage and
//! register-operation latencies in simulated nanoseconds.
//!
//! Design constraints:
//!
//! - **Near-zero cost when idle, a counted cost when not.** A metric
//!   update on a pre-registered handle is a relaxed load and store of the
//!   cell its owner thread writes (two for a histogram sample), and a
//!   relaxed atomic RMW from any other thread ([`metrics`]); an event or a
//!   span is one uncontended mutex acquisition and one slot of a chunked
//!   ring, and both logs are no-ops
//!   unless constructed with an explicit capacity
//!   ([`Registry::with_capacities`]). Crates that are not handed a
//!   registry skip instrumentation behind one `Option` branch.
//! - **No `unsafe`** outside [`alloc`], whose `GlobalAlloc` impl forwards
//!   to the system allocator.
//! - **No dependencies.** Events carry primitive ids and `&'static str`
//!   names so this crate sits at the bottom of the dependency graph, and
//!   every artifact (JSON and binary) goes through the one [`codec`].
//! - **Deterministic output.** Snapshots order series by
//!   `(name, label)` and events oldest-first, so two identical simulated
//!   runs produce byte-identical reports.
//!
//! ```
//! use p4auth_telemetry::{Event, Registry, RejectKind};
//!
//! let registry = Registry::with_event_capacity(1024);
//! let ok = registry.counter_with("auth_verify_ok", "s1");
//! ok.inc();
//! registry.histogram("register_op_ns").record(420_000);
//! registry.record(1_000, Event::AlertEmitted { source: 1, reason: RejectKind::BadDigest });
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("auth_verify_ok", "s1"), Some(1));
//! let json = snapshot.to_json();
//! assert!(json.contains("\"alert_emitted\""));
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod codec;
pub mod delta;
pub mod events;
pub mod metrics;
pub mod registry;
mod ring;
pub mod snapshot;
pub mod trace;

pub use delta::{HistogramDelta, SnapshotDelta};
pub use events::{DropCause, Event, EventLog, EventRecord, RejectKind};
pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::Registry;
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, Snapshot};
pub use trace::{OpenSpan, SpanKind, SpanRecord, TraceLog};
