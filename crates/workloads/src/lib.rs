//! # p4auth-workloads
//!
//! Synthetic workload generation for the P4Auth evaluation.
//!
//! The paper replays CAIDA PCAP traces into RouteScout (§IX-A); those
//! traces are license-gated, so this crate generates the closest synthetic
//! equivalent: flows with Poisson arrivals and heavy-tailed (log-normal)
//! sizes — the well-established shape of Internet traffic — expanded into
//! per-packet traces, plus per-path latency processes for the RouteScout
//! scenario. Everything is seeded and deterministic.
//!
//! * [`flows`] — flow-level generation (arrival times, sizes, flow ids),
//!   plus per-user arrival mixes ([`flows::ArrivalMix`]: uniform,
//!   bounded-Pareto elephant/mice bursts, trace-driven replay) consumed
//!   in structure-of-arrays form by the `systems` host aggregates.
//! * [`trace`] — packet-level traces derived from flows.
//! * [`latency`] — per-path latency processes (stable mean + jitter).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flows;
pub mod latency;
pub mod trace;
