//! One run of one workload: the end-to-end run (tracing off) and the
//! traced run (spans, allocation counts, probes, the layer ledger).

use crate::alloc;
use crate::catalog::{self, PEAK_RSS_BYTES, PER_LAYER, SETUP_S, UNITS_PER_S};
use crate::probes;
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::{self, Instance, Lap, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// What one run reports: the last line of standard output, as JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; the unit comes from the catalogue.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            // JSON has no NaN or infinity; a metric that could not be
            // computed reads 0.
            let value = if value.is_finite() { *value } else { 0.0 };
            let unit = catalog::unit_of(name).unwrap_or("");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Laps of one instance, timed from outside.
#[derive(Default)]
struct Laps {
    secs: Vec<f64>,
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    first: Option<Lap>,
}

impl Laps {
    fn one(&mut self, inst: &mut dyn Instance, t: &mut Tracer) {
        let start = Instant::now();
        let lap = inst.lap(t);
        let secs = start.elapsed().as_secs_f64();
        self.secs.push(secs);
        self.rates.push(lap.units as f64 / secs);
        self.attempted += lap.attempted;
        self.failed += lap.failed;
        self.first.get_or_insert(lap);
    }
}

/// Whether another lap should start: at least half of it has to fit.
fn time_for_another(begun: Instant, last_lap_secs: f64, seconds: f64) -> bool {
    begun.elapsed().as_secs_f64() + last_lap_secs / 2.0 < seconds
}

/// `VmHWM` of this process: the most physical memory it ever held.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Sets `w` up `times` times, one instance alive at a time (so peak RSS is
/// one instance's), timing each; the last instance is the one to run.
fn set_up(
    w: Workload,
    quick: bool,
    seed: u64,
    times: usize,
    t: &mut Tracer,
    secs: &mut Vec<f64>,
) -> Result<Box<dyn Instance>, String> {
    let mut inst = None;
    for _ in 0..times.max(1) {
        drop(inst.take());
        let start = Instant::now();
        inst = Some(workloads::setup(w, quick, seed, t)?);
        secs.push(start.elapsed().as_secs_f64());
    }
    inst.ok_or_else(|| "no set-up".to_string())
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn best(rates: &[f64]) -> f64 {
    rates.iter().copied().fold(0.0, f64::max)
}

/// The end-to-end run. Until `seconds` are used: set the workload up a few
/// times, run one lap on the last instance. Every lap is therefore the same
/// work on a fresh instance, and the set-up samples are spread over the
/// whole run like the laps are.
///
/// `units_per_s` is the rate of the best lap and `setup_s` the fastest
/// set-up: on this shared box interference only ever slows a lap, in
/// plateaus that outlast a run, and the best of identical repetitions is
/// the steadiest estimate of what the program costs (README, Calibration).
/// The medians are printed next to them.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, quick: bool) -> Result<Outcome, String> {
    let mut off = Tracer::off();
    let mut setup_secs = Vec::new();
    let mut laps = Laps::default();
    let begun = Instant::now();
    loop {
        let round = Instant::now();
        let mut inst = set_up(
            w,
            quick,
            seed,
            w.setups_per_lap(quick),
            &mut off,
            &mut setup_secs,
        )?;
        laps.one(inst.as_mut(), &mut off);
        if !time_for_another(begun, round.elapsed().as_secs_f64(), seconds) {
            break;
        }
    }
    eprintln!(
        "{}: {} set-ups: fastest {:.6} s, median {:.6} s; {} laps: best {:.0}, median {:.0} {} per host second",
        w.name(),
        setup_secs.len(),
        fastest(&setup_secs),
        median(&setup_secs),
        laps.rates.len(),
        best(&laps.rates),
        median(&laps.rates),
        w.units(),
    );
    let rates: Vec<String> = laps.rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("  lap rates: {}", rates.join(" "));
    Ok(Outcome {
        attempted: laps.attempted,
        failed: laps.failed,
        metrics: vec![
            (SETUP_S, fastest(&setup_secs)),
            (UNITS_PER_S, best(&laps.rates)),
            (PEAK_RSS_BYTES, peak_rss_bytes()?),
        ],
    })
}

/// Span names that only group other spans; the ledger does not count them
/// as time inside a layer.
const UMBRELLAS: [&str; 2] = ["op", "systems.round"];

/// What tracing one workload yields.
struct Traced {
    tracer: Tracer,
    /// The first lap, whose exact counts depend on the seed alone.
    first: Lap,
    /// Traced laps (all the same work) and their wall seconds together.
    traced_laps: u64,
    traced_secs: f64,
    attempted: u64,
    failed: u64,
    setup_secs: f64,
    setup_peak_bytes: i64,
    /// Only for the selected workload: (overhead share, leftover share).
    against_untraced: Option<(f64, f64)>,
}

/// Runs `w` with spans on: one traced lap on a fresh instance. With a time
/// budget, untraced and traced laps (each on a fresh instance, so all do
/// the same work) then alternate until it is used up, which gives the
/// tracing overhead and the reconciliation.
fn trace_workload(
    w: Workload,
    seed: u64,
    quick: bool,
    budget_secs: Option<f64>,
) -> Result<Traced, String> {
    let mut tracer = Tracer::on();
    let mut setup_secs = Vec::new();
    alloc::reset_peak();
    let live_before = alloc::live_bytes();
    let mut inst = set_up(w, quick, seed, 1, &mut tracer, &mut setup_secs)?;
    let setup_peak_bytes = alloc::peak_bytes() - live_before;

    let (mut traced, mut untraced) = (Laps::default(), Laps::default());
    let begun = Instant::now();
    traced.one(inst.as_mut(), &mut tracer);
    tracer.keep_no_more();
    if let Some(budget) = budget_secs {
        loop {
            drop(inst);
            inst = set_up(w, quick, seed, 1, &mut Tracer::off(), &mut setup_secs)?;
            untraced.one(inst.as_mut(), &mut Tracer::off());
            if !time_for_another(begun, 2.0 * untraced.secs[0], budget) {
                break;
            }
            drop(inst);
            inst = set_up(w, quick, seed, 1, &mut Tracer::off(), &mut setup_secs)?;
            traced.one(inst.as_mut(), &mut tracer);
        }
    }
    let against_untraced = budget_secs.map(|_| {
        let overhead = best(&untraced.rates) / best(&traced.rates) - 1.0;
        let layer_ns: u64 = tracer
            .all_totals()
            .filter(|(name, _)| !UMBRELLAS.contains(name) && *name != "systems.build")
            .map(|(_, t)| t.self_ns)
            .sum();
        let per_lap_ns = layer_ns as f64 / traced.secs.len() as f64;
        (overhead, 1.0 - per_lap_ns / (fastest(&untraced.secs) * 1e9))
    });
    Ok(Traced {
        traced_laps: traced.secs.len() as u64,
        traced_secs: traced.secs.iter().sum(),
        attempted: traced.attempted + untraced.attempted,
        failed: traced.failed + untraced.failed,
        first: traced.first.take().ok_or("no traced lap")?,
        tracer,
        setup_secs: setup_secs[0],
        setup_peak_bytes,
        against_untraced,
    })
}

/// `benchmark/out/`, next to this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(w: Workload, tracer: &Tracer) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn ratio(count: u64, per: u64) -> f64 {
    count as f64 / per.max(1) as f64
}

/// The traced run. Every workload is set up and traced for one lap, so
/// that every per-layer metric is measured in every traced run at its
/// owner's full size; the selected workload `w` also alternates traced
/// and untraced laps for half of `seconds`, and its spans are written to
/// `benchmark/out/trace-<workload>.json`.
pub fn traced(w: Workload, seed: u64, seconds: f64, quick: bool) -> Result<Outcome, String> {
    alloc::enable();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for x in workloads::ALL {
        let r = trace_workload(x, seed, quick, (x == w).then_some(seconds / 2.0))?;
        attempted += r.attempted;
        failed += r.failed;
        let c = &r.first.counts;
        match x {
            Workload::FabricWide | Workload::FabricDeep => {
                let wide = x == Workload::FabricWide;
                let [events, timers, delivered, sim_ns, host_ns] = if wide {
                    [
                        "netsim.events_wide",
                        "netsim.timers_fired_wide",
                        "netsim.frames_delivered_wide",
                        "netsim.sim_ns_wide",
                        "netsim.host_ns_per_event_wide",
                    ]
                } else {
                    [
                        "netsim.events_deep",
                        "netsim.timers_fired_deep",
                        "netsim.frames_delivered_deep",
                        "netsim.sim_ns_deep",
                        "netsim.host_ns_per_event_deep",
                    ]
                };
                m.insert(events, c["events"] as f64);
                m.insert(timers, c["timers_fired"] as f64);
                m.insert(delivered, c["frames_delivered"] as f64);
                m.insert(sim_ns, c["sim_ns"] as f64);
                m.insert(
                    host_ns,
                    r.traced_secs * 1e9 / (c["events"] * r.traced_laps).max(1) as f64,
                );
                if wide {
                    let users = c["users"].max(1) as f64;
                    m.insert("systems.build_ns_per_user", r.setup_secs * 1e9 / users);
                    m.insert(
                        "systems.alloc_bytes_per_user",
                        r.setup_peak_bytes as f64 / users,
                    );
                }
            }
            Workload::AuthRw => {
                let request = r.tracer.totals("controller.request");
                let on_message = r.tracer.totals("controller.on_message");
                let on_packet = r.tracer.totals("core.on_packet");
                m.insert("controller.request_ns", request.mean_ns());
                m.insert("controller.request_allocs", request.mean_allocs());
                m.insert("controller.on_message_ns", on_message.mean_ns());
                m.insert("controller.on_message_allocs", on_message.mean_allocs());
                m.insert("core.on_packet_ns", on_packet.mean_ns());
                m.insert("core.on_packet_allocs", on_packet.mean_allocs());
                m.insert(
                    "core.on_packet_ns_p99",
                    f64::from(on_packet.percentile_ns(99.0)),
                );
                m.insert(
                    "primitives.mac_passes_per_op",
                    ratio(c["hash_passes"], c["ops"]),
                );
                m.insert(
                    "dataplane.recirc_per_op",
                    ratio(c["recirculations"], c["ops"]),
                );
            }
            Workload::AuthFlood => {
                let hostile = c["hostile_frames"];
                // A hostile frame the agent accepted is one of `failed`.
                let accepted = r.first.failed.min(hostile);
                m.insert(
                    "core.on_packet_reject_ns",
                    r.tracer.totals("core.on_packet_reject").mean_ns(),
                );
                m.insert("core.reject_share", ratio(hostile - accepted, hostile));
                m.insert(
                    "core.outputs_per_reject",
                    ratio(c["reject_outputs"], hostile),
                );
            }
            Workload::CtrlFleet => {
                let run = r.tracer.totals("netsim.run");
                m.insert(
                    "systems.round_ns",
                    r.tracer.totals("systems.round").mean_ns(),
                );
                m.insert("netsim.events_per_op", ratio(c["events"], c["ops"]));
                m.insert(
                    "netsim.host_ns_per_event_fleet",
                    ratio(run.total_ns, c["events"] * r.traced_laps),
                );
                m.insert(
                    "controller.rollover_epoch_ns",
                    r.tracer.totals("controller.rollover_epoch").mean_ns(),
                );
                m.insert(
                    "controller.rollover_sim_ns",
                    ratio(c["rollover_sim_ns"], c["rollovers"]),
                );
                m.insert(
                    "controller.statedb_writes_per_op",
                    ratio(c["statedb_writes"], c["ops"]),
                );
                m.insert(
                    "telemetry.spans_per_op",
                    ratio(c["telemetry_spans"], c["ops"]),
                );
                m.insert(
                    "telemetry.events_per_op",
                    ratio(c["telemetry_events"], c["ops"]),
                );
                m.insert("telemetry.trace_dropped", c["trace_dropped"] as f64);
            }
        }
        if let Some((overhead, leftover)) = r.against_untraced {
            m.insert("trace_overhead_share", overhead);
            m.insert("reconcile_leftover_share", leftover);
            let path = write_trace(x, &r.tracer)?;
            print_ledger(x, &r.tracer, overhead, leftover);
            eprintln!("{} kept spans -> {}", r.tracer.kept().len(), path.display());
        }
    }

    // telemetry.overhead_share: the same quarter lap with and without the
    // registry, both untraced.
    let mut quarter = [0.0; 2];
    for (secs, registry) in quarter.iter_mut().zip([true, false]) {
        let mut inst = workloads::fleet_quarter(seed, quick, registry);
        let mut laps = Laps::default();
        laps.one(inst.as_mut(), &mut Tracer::off());
        failed += laps.failed;
        attempted += laps.attempted;
        *secs = laps.secs[0];
    }
    m.insert("telemetry.overhead_share", quarter[0] / quarter[1] - 1.0);

    probes::run(seed, quick, &mut m)?;
    alloc::disable();

    // Derived lines of the ledger.
    let get = |name: &str| m.get(name).copied().unwrap_or(f64::NAN);
    let agent_self = get("core.on_packet_ns")
        - (get("wire.decode_ns")
            + get("wire.encode_ns")
            + get("primitives.mac_ns") * get("primitives.mac_passes_per_op")
            + get("dataplane.process_ns"));
    let per_event = get("netsim.sched_hold_ns_1k") + get("netsim.dispatch_ns");
    let unattributed = |host_ns_per_event: f64| 1.0 - per_event / host_ns_per_event;
    let wide = unattributed(get("netsim.host_ns_per_event_wide"));
    let deep = unattributed(get("netsim.host_ns_per_event_deep"));
    m.insert("core.agent_self_ns", agent_self);
    m.insert("systems.unattributed_share_wide", wide);
    m.insert("systems.unattributed_share_deep", deep);

    let metrics = PER_LAYER
        .iter()
        .map(|p| {
            m.get(p.name)
                .map(|v| (p.name, *v))
                .ok_or_else(|| format!("{} was not measured", p.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// The selected workload's ledger: every span name with its count, mean
/// and share of the untraced lap.
fn print_ledger(w: Workload, tracer: &Tracer, overhead: f64, leftover: f64) {
    eprintln!(
        "layer ledger of {} (spans recorded from the benchmark's files)",
        w.name()
    );
    eprintln!(
        "  {:<32} {:>10} {:>12} {:>12} {:>10}",
        "span", "count", "mean ns", "p99 ns", "allocs"
    );
    for (name, t) in tracer.all_totals() {
        eprintln!(
            "  {:<32} {:>10} {:>12.1} {:>12} {:>10.2}",
            name,
            t.count,
            t.mean_ns(),
            t.percentile_ns(99.0),
            t.mean_allocs()
        );
    }
    eprintln!("  trace_overhead_share     {overhead:+.4}  (untraced / traced rate - 1)");
    eprintln!("  reconcile_leftover_share {leftover:+.4}  (1 - layer span ns / untraced lap ns)");
}

/// Prints every metric of `outcome` by name and unit.
pub fn print_metrics(w: Workload, outcome: &Outcome) {
    eprintln!(
        "{}: attempted {} failed {} (failed_share {})",
        w.name(),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (name, value) in &outcome.metrics {
        eprintln!(
            "  {:<36} {:>18.4} {}",
            name,
            value,
            catalog::unit_of(name).unwrap_or("")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_json_is_one_line_with_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![(SETUP_S, 0.25), (UNITS_PER_S, f64::NAN)],
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"units_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
        assert!(!Outcome { failed: 1, ..o }.correct());
    }

    #[test]
    fn quick_end_to_end_run_reports_the_three_metrics() {
        let o = end_to_end(Workload::AuthRw, 5, 0.05, true).unwrap();
        assert!(o.correct() && o.attempted > 0);
        let names: Vec<_> = o.metrics.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, [SETUP_S, UNITS_PER_S, PEAK_RSS_BYTES]);
        assert!(o.metrics.iter().all(|(_, v)| *v > 0.0));
    }

    #[test]
    fn half_a_lap_must_fit() {
        let begun = Instant::now();
        assert!(time_for_another(begun, 1.0, 10.0));
        assert!(!time_for_another(begun, 21.0, 10.0));
    }
}
