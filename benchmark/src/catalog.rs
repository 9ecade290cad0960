//! Every metric the benchmark reports, by name, unit and direction, and
//! the text of `BENCHMARK.json` (a test keeps the checked-in file equal to
//! [`manifest`]).

use crate::workloads;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: u64 = 18;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see; reported by every workload.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const UNITS_PER_S: &str = "units_per_s";
pub const PEAK_RSS_BYTES: &str = "peak_rss_bytes";

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: UNITS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_BYTES,
        unit: "bytes",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A metric of one layer. Each is measured on one workload (its owner) or
/// by a probe; every traced run reports all of them.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A function of the seed alone: two runs with one seed must agree.
    pub exact: bool,
    /// Where the number comes from (README's table is generated from this).
    pub source: &'static str,
}

const fn timed(name: &'static str, source: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ns",
        better: Better::Lower,
        exact: false,
        source,
    }
}

/// Simulated nanoseconds: a time, but a function of the seed alone.
const fn simulated(name: &'static str, source: &'static str) -> PerLayer {
    PerLayer {
        exact: true,
        ..timed(name, source)
    }
}

const fn counted(name: &'static str, exact: bool, source: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Better::Lower,
        exact,
        source,
    }
}

const fn share(name: &'static str, better: Better, exact: bool, source: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "share",
        better,
        exact,
        source,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // controller ↔ agent loop, spans on auth_rw
    timed(
        "controller.request_ns",
        "auth_rw: span over ReplicaSet::{read,write}_register, mean",
    ),
    counted(
        "controller.request_allocs",
        false,
        "auth_rw: allocations inside that span, mean",
    ),
    timed(
        "controller.on_message_ns",
        "auth_rw: span over ReplicaSet::on_message, mean",
    ),
    counted(
        "controller.on_message_allocs",
        false,
        "auth_rw: allocations inside that span, mean",
    ),
    timed(
        "core.on_packet_ns",
        "auth_rw: span over P4AuthSwitch::on_packet, accepted frames, mean",
    ),
    counted(
        "core.on_packet_allocs",
        false,
        "auth_rw: allocations inside that span, mean",
    ),
    timed(
        "core.on_packet_ns_p99",
        "auth_rw: 99th percentile of the same span",
    ),
    counted(
        "primitives.mac_passes_per_op",
        true,
        "auth_rw: AgentOutput::hash_passes per op",
    ),
    counted(
        "dataplane.recirc_per_op",
        true,
        "auth_rw: AgentOutput::recirculations per op",
    ),
    // reject path, spans on auth_flood
    timed(
        "core.on_packet_reject_ns",
        "auth_flood: span over P4AuthSwitch::on_packet, hostile frames, mean",
    ),
    share(
        "core.reject_share",
        Better::Higher,
        true,
        "auth_flood: hostile frames rejected / hostile frames sent",
    ),
    counted(
        "core.outputs_per_reject",
        true,
        "auth_flood: frames the agent sends back per hostile frame",
    ),
    // probes on auth_rw's first 4096 request frames
    timed("wire.decode_ns", "probe: Message::decode"),
    timed("wire.encode_ns", "probe: Message::encode"),
    counted(
        "wire.codec_allocs",
        false,
        "probe: allocations per decode + encode",
    ),
    timed(
        "primitives.mac_ns",
        "probe: HalfSipHashMac::compute on digest_input()",
    ),
    timed(
        "dataplane.process_ns",
        "probe: Chassis::process, digest verify + register read + write",
    ),
    timed(
        "core.agent_self_ns",
        "derived: on_packet_ns - (decode + encode + mac x passes + process)",
    ),
    timed("primitives.kdf_ns", "probe: Kdf::derive"),
    timed(
        "primitives.dh_exchange_ns",
        "probe: one full ADHKD exchange",
    ),
    // full stack in the simulator, spans on ctrl_fleet
    timed(
        "systems.round_ns",
        "ctrl_fleet: span over one round (80 controller_read/write + run_to_completion), mean",
    ),
    counted(
        "netsim.events_per_op",
        true,
        "ctrl_fleet: run_to_completion events per register op",
    ),
    timed(
        "netsim.host_ns_per_event_fleet",
        "ctrl_fleet: run_to_completion span / events",
    ),
    timed(
        "controller.rollover_epoch_ns",
        "ctrl_fleet: span from start_bulk_rollover to completion, mean",
    ),
    simulated(
        "controller.rollover_sim_ns",
        "ctrl_fleet: simulated ns per rollover epoch",
    ),
    counted(
        "controller.statedb_writes_per_op",
        true,
        "ctrl_fleet: StateDb::writes() delta per register op",
    ),
    share(
        "telemetry.overhead_share",
        Better::Lower,
        false,
        "quarter-length ctrl_fleet lap with registry / without, minus 1",
    ),
    counted(
        "telemetry.spans_per_op",
        true,
        "ctrl_fleet: TraceLog spans kept per register op",
    ),
    counted(
        "telemetry.events_per_op",
        true,
        "ctrl_fleet: EventLog events kept per register op",
    ),
    counted(
        "telemetry.trace_dropped",
        true,
        "ctrl_fleet: spans the bounded TraceLog dropped in the first lap",
    ),
    timed("telemetry.counter_inc_ns", "probe: Counter::inc"),
    timed("telemetry.histogram_record_ns", "probe: Histogram::record"),
    timed(
        "telemetry.event_record_ns",
        "probe: Registry::record on a full 4096-event log",
    ),
    timed("telemetry.span_ns", "probe: TraceLog::start + end"),
    timed("telemetry.snapshot_ns", "probe: Registry::snapshot"),
    // fabric
    counted("netsim.events_wide", true, "fabric_wide: events of one lap"),
    counted(
        "netsim.timers_fired_wide",
        true,
        "fabric_wide: SimStats::timers_fired",
    ),
    counted(
        "netsim.frames_delivered_wide",
        true,
        "fabric_wide: frames delivered",
    ),
    simulated("netsim.sim_ns_wide", "fabric_wide: final simulated clock"),
    timed(
        "netsim.host_ns_per_event_wide",
        "fabric_wide: lap wall / events",
    ),
    counted("netsim.events_deep", true, "fabric_deep: events of one lap"),
    counted(
        "netsim.timers_fired_deep",
        true,
        "fabric_deep: SimStats::timers_fired",
    ),
    counted(
        "netsim.frames_delivered_deep",
        true,
        "fabric_deep: frames delivered",
    ),
    simulated("netsim.sim_ns_deep", "fabric_deep: final simulated clock"),
    timed(
        "netsim.host_ns_per_event_deep",
        "fabric_deep: lap wall / events",
    ),
    timed(
        "netsim.sched_hold_ns_1k",
        "probe: CalendarQueue pop + schedule at 1k resident events",
    ),
    timed("netsim.sched_hold_ns_100k", "probe: the same at 100k"),
    timed("netsim.sched_hold_ns_1m", "probe: the same at 1M"),
    timed(
        "netsim.dispatch_ns",
        "probe: two-node ping-pong on Simulator with a do-nothing SimNode, per event",
    ),
    timed(
        "netsim.next_hop_ns",
        "probe: FatTree::next_hop_avoiding, k=8",
    ),
    timed(
        "netsim.framebytes_ns",
        "probe: FrameBytes::from_slice + clone, 34 B and 58 B",
    ),
    timed(
        "systems.build_ns_per_user",
        "fabric_wide: set-up span / users",
    ),
    PerLayer {
        name: "systems.alloc_bytes_per_user",
        unit: "bytes",
        better: Better::Lower,
        exact: false,
        source: "fabric_wide: counted peak heap of set-up / users",
    },
    share(
        "systems.unattributed_share_wide",
        Better::Lower,
        false,
        "derived: 1 - events x (sched_hold_1k + dispatch) / lap wall",
    ),
    share(
        "systems.unattributed_share_deep",
        Better::Lower,
        false,
        "derived: the same for fabric_deep",
    ),
    // the traced run itself, for the workload named by --workload
    share(
        "trace_overhead_share",
        Better::Lower,
        false,
        "selected workload: untraced / traced units_per_s, minus 1",
    ),
    share(
        "reconcile_leftover_share",
        Better::Lower,
        false,
        "selected workload: 1 - sum of layer span ns / untraced lap ns",
    ),
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in workloads::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
            w.name(),
            w.why()
        );
        s.push_str(if i + 1 < workloads::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        s.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        );
        s.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// The unit string of an end-to-end or per-layer metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// The per-layer metrics as a Markdown table (README's is this output).
pub fn layers_table() -> String {
    let mut s = String::from("| metric | unit | exact | how it is measured |\n|---|---|---|---|\n");
    for p in PER_LAYER {
        let exact = if p.exact { "yes" } else { "" };
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} |",
            p.name, p.unit, exact, p.source
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let names = workloads::ALL
            .iter()
            .map(|w| (w.name(), None))
            .chain(END_TO_END.iter().map(|m| (m.name, Some(m.unit))))
            .chain(PER_LAYER.iter().map(|m| (m.name, Some(m.unit))));
        for (name, unit) in names {
            assert!(is_name(name), "{name}");
            assert!(unit.is_none_or(is_unit), "{name}: {unit:?}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!((2..=8).contains(&workloads::ALL.len()));
        assert!(PER_LAYER.len() <= 128);
        for w in workloads::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains(['\n', '"']),
                "{}",
                w.name()
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }

    #[test]
    fn setup_metric_is_as_the_contract_wants_it() {
        let m = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((m.unit, m.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(m.bound, widest);
    }

    /// BENCHMARK.json is this function's output; regenerate it with
    /// `cargo run --manifest-path benchmark/Cargo.toml -- manifest`.
    #[test]
    fn checked_in_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest());
        assert!(on_disk.len() <= 64 * 1024);
    }
}
