//! Paper-style report printers and the baseline gates the `repro` binary
//! runs them under.

use crate::{banner, rw_rows};
use p4auth_attacks::bruteforce;
use p4auth_controller::ControllerConfig;
use p4auth_core::kmp::{KeyOperation, NetworkScale, ShardedDeployment};
use p4auth_dataplane::cost::AccessMethod;
use p4auth_dataplane::resources::{DeviceCapacity, ProgramResources};
use p4auth_netsim::engine::Engine;
use p4auth_netsim::topology::Topology;
use p4auth_primitives::mac::DigestWidth;
use p4auth_systems::experiments::{fct, fig16, fig17, fig20, fig21};
use p4auth_systems::harness::Network;
use p4auth_systems::table1;
use p4auth_telemetry::codec::{parse_json, JsonWriter, Layout, Value};

/// What `repro` parsed from its command line for the machine-readable
/// reports.
#[derive(Clone, Debug)]
pub struct ReportArgs {
    /// `--short`: the CI-sized workload.
    pub short: bool,
    /// `--out <path>`: also write the report's JSON to `<path>` (and its
    /// binary form, where one exists, to `<path>.bin`).
    pub out: Option<String>,
    /// `--baseline <path>`: the checked-in JSON the report's
    /// non-regression gates compare against.
    pub baseline: Option<String>,
}

/// Prints `msg` and exits non-zero.
pub fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// Writes a report's JSON to `--out <path>` and its binary form, when it
/// has one, to `<path>.bin`. No-op without `--out`.
fn write_artifact(out: &Option<String>, json: &str, bin: Option<&[u8]>) {
    let Some(path) = out else { return };
    let bin = bin.map(|bytes| (format!("{path}.bin"), bytes));
    for (path, bytes) in [(path.clone(), json.as_bytes())].into_iter().chain(bin) {
        std::fs::write(&path, bytes).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        println!("wrote {path}");
    }
}

/// Runs `f` on [`Engine::REFERENCE`] and on every engine of the canonical
/// differential list, asserts each result equals the reference's, and
/// returns that one.
fn on_every_engine<T: PartialEq>(what: &str, f: impl Fn(Engine) -> T) -> T {
    let reference = f(Engine::REFERENCE);
    for engine in Engine::DIFFERENTIAL {
        let label = engine.label();
        assert!(
            f(engine) == reference,
            "{label}: {what} diverged from calendar"
        );
    }
    reference
}

/// How this run's value of a gated field may differ from the baseline's:
/// at most a factor above it, still `true` if it was, or not at all (an
/// array, element for element).
#[derive(Debug)]
enum Bound {
    NotAbove(f64),
    StillTrue,
    Same,
}

use Bound::{NotAbove, Same, StillTrue};

impl Bound {
    /// Whether the bound holds; `None` when the two values are not both
    /// of the type the bound compares.
    fn holds(&self, base: &Value, run: &Value) -> Option<bool> {
        Some(match *self {
            NotAbove(factor) => run.as_f64()? <= base.as_f64()? * factor,
            StillTrue => run.as_bool()? || !base.as_bool()?,
            Same => run.as_array()? == base.as_array()?,
        })
    }
}

/// A checked-in baseline: file name, the array holding its rows, and the
/// member that identifies a row.
struct Baseline(&'static str, &'static str, &'static str);

const USERS: Baseline = Baseline("BENCH_users.json", "runs", "users");
const SCENARIOS: Baseline = Baseline("BENCH_scenarios.json", "campaigns", "name");

/// One non-regression gate: the baseline row matching one of this run's
/// bounds the named field. The flag marks fields a baseline row may carry
/// as `null` or not at all, which skips that row: a campaign without a
/// mitigation or a rollover has no latency for it. A gate must still
/// compare at least one row.
struct Gate(&'static Baseline, &'static str, Bound, bool);

/// Every `--baseline` gate: the wall-clock-tolerant per-user cost, the
/// counted peak heap of a users run (repeats to within kilobytes), the
/// users run's deterministic fingerprint (events, frames sent, frames
/// delivered, final clock: equal or the run is another run — which is
/// also why only the full sweep gates against `BENCH_users.json`, whose
/// 10k row is fat-tree(8) and a short run's fat-tree(4)), campaign
/// verdicts, and the defence latency percentiles — a protocol property
/// (detection window + KMP round-trips), not a fabric-size one, so short
/// CI runs gate against the full-mode baseline directly.
const GATES: &[Gate] = &[
    Gate(&USERS, "ns_per_user", NotAbove(3.0), false),
    Gate(&USERS, "peak_alloc_bytes", NotAbove(1.5), false),
    Gate(&USERS, "fingerprint", Same, false),
    Gate(&SCENARIOS, "passed", StillTrue, false),
    Gate(&SCENARIOS, "mitigation_latency_p50_ns", NotAbove(2.0), true),
    Gate(&SCENARIOS, "mitigation_latency_p99_ns", NotAbove(2.0), true),
    Gate(&SCENARIOS, "rollover_fanout_p50_ns", NotAbove(2.0), true),
    Gate(&SCENARIOS, "rollover_fanout_p99_ns", NotAbove(2.0), true),
];

/// Evaluates every gate on `of` between the `baseline` document and this
/// run's `current` one (same schema), returning the lines to print or the
/// first failure. Fails closed: unparseable JSON, a gate that compares no
/// row (short runs legitimately match only a subset of the baseline's
/// rows, and a nullable gate skips a `null` baseline value, but a gate
/// left with nothing to compare is an error), and a matched row whose
/// gated field is missing or of the wrong type are all errors.
fn check_gates(of: &Baseline, baseline: &str, current: &str) -> Result<Vec<String>, String> {
    let &Baseline(file, rows_key, selector) = of;
    let rows = |what: &str, text| {
        let doc = parse_json(text).map_err(|e| format!("{what} is not valid JSON: {e}"))?;
        let rows = doc.get(rows_key).and_then(Value::as_array);
        rows.map(<[_]>::to_vec)
            .ok_or(format!("{what} has no \"{rows_key}\" array"))
    };
    let (base_rows, run_rows) = (rows(file, baseline)?, rows("this run's report", current)?);
    fn show(v: &Value) -> String {
        match v {
            Value::Num(s) | Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Arr(items) => {
                let items: Vec<String> = items.iter().map(show).collect();
                format!("[{}]", items.join(", "))
            }
            _ => "null".into(),
        }
    }
    let mut lines = Vec::new();
    for Gate(_, field, bound, nullable) in GATES.iter().filter(|g| g.0 .0 == file) {
        let mut compared = 0;
        for row in &run_rows {
            let id = row.get(selector).unwrap_or(&Value::Null);
            let Some(base_row) = base_rows.iter().find(|b| b.get(selector) == Some(id)) else {
                continue;
            };
            let want = base_row.get(field).unwrap_or(&Value::Null);
            let got = row.get(field).unwrap_or(&Value::Null);
            if *nullable && *want == Value::Null {
                continue;
            }
            compared += 1;
            let at = format!("{selector} {}: {field}", show(id));
            let line = format!("{at} {} vs baseline {} ({bound:?})", show(got), show(want));
            match bound.holds(want, got) {
                Some(true) => {}
                Some(false) => return Err(format!("regressed: {line}")),
                None => return Err(format!("not comparable: {line}")),
            }
            lines.push(format!("  {line} ✓"));
        }
        if compared == 0 {
            return Err(format!(
                "no {selector} of this run has a {field} among {file}'s {rows_key}: \
                 nothing was compared"
            ));
        }
    }
    Ok(lines)
}

/// Starts a `BENCH_*.json`-shaped report; the caller adds its own header
/// members, then [`open_rows`].
fn open_report(experiment: &str, short: bool) -> JsonWriter {
    let mut w = JsonWriter::new(": ");
    w.obj(Layout::lines("\n  ", "\n"));
    w.field_str("experiment", experiment);
    w.field("short_mode", short);
    w
}

/// Opens the rows array, under the name its baseline knows it by.
fn open_rows(w: &mut JsonWriter, of: &Baseline) {
    w.key(of.1);
    w.arr(Layout::lines("\n    ", "\n  "));
}

/// Closes rows and report, prints the JSON, runs [`check_gates`] against
/// `--baseline <path>` (any failure, an unreadable file included, exits
/// non-zero) and writes `--out`.
fn close_report(mut w: JsonWriter, args: &ReportArgs, of: &Baseline) {
    w.end();
    w.end();
    let json = w.finish();
    print!("{json}");
    if let Some(path) = &args.baseline {
        let baseline = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(format!("cannot read baseline {path}: {e}")));
        match check_gates(of, &baseline, &json) {
            Ok(lines) => lines.iter().for_each(|line| println!("{line}")),
            Err(e) => die(format!("baseline gate {path}: {e}")),
        }
    }
    write_artifact(&args.out, &json, None);
}

/// Fig. 16 — RouteScout traffic distribution.
pub fn fig16() {
    banner(
        "Fig. 16 — RouteScout traffic distribution",
        "paper §IX-A, Fig. 16",
    );
    let config = fig16::Fig16Config::default();
    println!(
        "{:<22} {:>14} {:>14} {:>10} {:>12}",
        "scenario", "path1 (fast) %", "path2 (slow) %", "split→p1", "detections"
    );
    for r in fig16::run_all(config) {
        println!(
            "{:<22} {:>14.1} {:>14.1} {:>10} {:>12}",
            r.scenario.label(),
            100.0 * r.post_attack_share[0],
            100.0 * r.post_attack_share[1],
            r.final_split,
            r.tamper_detections,
        );
    }
    println!("\npaper shape: no-adv splits by delay; adversary diverts ~70% to path2;");
    println!("P4Auth detects every tampered epoch and retains the original ratio.");
}

/// Fig. 17 — HULA traffic distribution.
pub fn fig17() {
    banner(
        "Fig. 17 — HULA traffic distribution",
        "paper §IX-A, Fig. 17",
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "scenario", "S1-S2 %", "S1-S3 %", "S1-S4 %", "dropped", "alerts"
    );
    for r in fig17::run_all(fig17::Fig17Config::default()) {
        println!(
            "{:<22} {:>10.1} {:>10.1} {:>10.1} {:>10} {:>8}",
            r.scenario.label(),
            100.0 * r.path_share[0],
            100.0 * r.path_share[1],
            100.0 * r.path_share[2],
            r.probes_dropped,
            r.alerts,
        );
    }
    println!("\npaper shape: equal thirds clean; >70% onto S1-S4 under attack;");
    println!("with P4Auth the compromised link carries nothing and alerts fire.");
}

/// Fig. 18 — register read/write RCT.
pub fn fig18() {
    banner("Fig. 18 — register read/write RCT", "paper §IX-B, Fig. 18");
    println!(
        "{:<12} {:>14} {:>14}",
        "method", "read RCT (ms)", "write RCT (ms)"
    );
    for row in rw_rows() {
        println!(
            "{:<12} {:>14.3} {:>14.3}",
            row.method.label(),
            row.read_rct_ns as f64 / 1e6,
            row.write_rct_ns as f64 / 1e6,
        );
    }
    println!("\npaper shape: P4Runtime writes cost ~1.7x reads; P4Auth adds only a");
    println!("small digest overhead on top of DP-Reg-RW.");
}

/// Fig. 19 — register read/write throughput.
pub fn fig19() {
    banner(
        "Fig. 19 — register read/write throughput",
        "paper §IX-B, Fig. 19",
    );
    println!(
        "{:<12} {:>14} {:>14}",
        "method", "read (req/s)", "write (req/s)"
    );
    let rows = rw_rows();
    for row in &rows {
        println!(
            "{:<12} {:>14.1} {:>14.1}",
            row.method.label(),
            row.read_rps(),
            row.write_rps(),
        );
    }
    let p4rt = rows
        .iter()
        .find(|r| r.method == AccessMethod::P4Runtime)
        .unwrap();
    let dp = rows
        .iter()
        .find(|r| r.method == AccessMethod::DpRegRw)
        .unwrap();
    let auth = rows
        .iter()
        .find(|r| r.method == AccessMethod::P4Auth)
        .unwrap();
    println!(
        "\nP4Runtime read/write throughput ratio: {:.2}x   (paper: ~1.7x)",
        p4rt.read_rps() / p4rt.write_rps()
    );
    println!(
        "P4Auth vs DP-Reg-RW: read {:+.1}%, write {:+.1}%   (paper: -4.2% / -2.1%)",
        100.0 * (auth.read_rps() / dp.read_rps() - 1.0),
        100.0 * (auth.write_rps() / dp.write_rps() - 1.0),
    );
}

/// Fig. 20 — key management RTT.
pub fn fig20() {
    banner("Fig. 20 — key management RTT", "paper §IX-B, Fig. 20");
    let r = fig20::measure_default();
    println!(
        "{:<20} {:>10} {:>10} {:>10}",
        "operation", "RTT (ms)", "#msgs", "#bytes"
    );
    let ops = [
        (KeyOperation::LocalInit, r.local_init_ns),
        (KeyOperation::LocalUpdate, r.local_update_ns),
        (KeyOperation::PortInit, r.port_init_ns),
        (KeyOperation::PortUpdate, r.port_update_ns),
    ];
    for (op, ns) in ops {
        println!(
            "{:<20} {:>10.3} {:>10} {:>10}",
            op.label(),
            ns as f64 / 1e6,
            op.message_count(),
            op.byte_count(),
        );
    }
    println!("\npaper shape: 1-2ms for initialization, <1ms for updates; port init");
    println!("slowest (controller redirection), port update fastest (direct DP-DP).");
}

/// Fig. 21 — probe traversal time vs. hops.
pub fn fig21() {
    banner(
        "Fig. 21 — probe traversal time vs. hops",
        "paper §IX-C, Fig. 21",
    );
    println!(
        "{:>5} {:>15} {:>15} {:>10}",
        "hops", "baseline (ms)", "P4Auth (ms)", "overhead"
    );
    for p in fig21::sweep(10) {
        println!(
            "{:>5} {:>15.3} {:>15.3} {:>9.2}%",
            p.hops,
            p.baseline_ns as f64 / 1e6,
            p.p4auth_ns as f64 / 1e6,
            p.overhead_pct(),
        );
    }
    println!("\npaper shape: overhead grows with hop count and stays single-digit");
    println!("(paper: 0.95% at 2 hops, 5.9% at 10 hops).");
}

/// Table I — the seven systems under the attack the table cites, with
/// P4Auth off and on. Exits non-zero if a row does not reproduce: the
/// attack must break the row's invariant without P4Auth, and with it the
/// invariant must hold and the controller must be told.
pub fn table1() {
    banner(
        "Table I — impact of altering C-DP messages",
        "paper §II, Table I",
    );
    let verdicts = table1::run_all();
    let held = |held| if held { "held" } else { "VIOLATED" };
    println!(
        "{:<11} {:<12} {:<10} {:<8} {:>9}",
        "system", "class", "no P4Auth", "P4Auth", "detected"
    );
    for v in &verdicts {
        println!(
            "{:<11} {:<12} {:<10} {:<8} {:>9}",
            v.row.system,
            v.row.class,
            held(v.unprotected.held),
            held(v.protected.held),
            v.protected.detections,
        );
    }
    for v in &verdicts {
        println!("\n{}: {}", v.row.system, v.row.attack);
        println!("  impact:    {}", v.row.impact);
        println!("  invariant: {}", v.row.invariant);
        println!("  no P4Auth: {}", v.unprotected.observed);
        println!("  P4Auth:    {}", v.protected.observed);
    }
    if let Some(v) = verdicts.iter().find(|v| !v.reproduced()) {
        die(format!(
            "Table I: the {} row does not reproduce",
            v.row.system
        ));
    }
}

/// Table II — hardware resource overhead.
pub fn table2() {
    banner(
        "Table II — hardware resource overhead",
        "paper §IX-B, Table II",
    );
    let device = DeviceCapacity::tofino();
    let baseline = ProgramResources::baseline_l3();
    let with_p4auth = baseline.plus(ProgramResources::p4auth_modules(32, 1, DigestWidth::W32));

    println!(
        "{:<14} {:>8} {:>8} {:>12} {:>8}",
        "program", "TCAM", "SRAM", "Hash Units", "PHV"
    );
    for (label, prog) in [("Baseline", baseline), ("With P4Auth", with_p4auth)] {
        let u = prog.utilization(&device);
        println!(
            "{:<14} {:>7.1}% {:>7.1}% {:>11.1}% {:>7.1}%",
            label, u.tcam_pct, u.sram_pct, u.hash_units_pct, u.phv_pct
        );
    }
    println!("\npaper:      Baseline  8.3% / 2.5% /  1.4% / 11.0%");
    println!("paper:      P4Auth    8.3% / 3.6% / 51.4% / 23.1%");

    println!("\nSRAM scaling (key register 64*(M+1) bits; mapping table 2K x 40 bits):");
    for (ports, registers) in [(8u32, 1u32), (32, 8), (64, 64)] {
        let m = ProgramResources::p4auth_modules(ports, registers, DigestWidth::W32);
        println!(
            "  M={ports:<3} K={registers:<3} -> {} SRAM blocks, {} hash units (constant)",
            m.sram_blocks, m.hash_units
        );
    }
}

/// Table III — KMP scalability, including the §XI sharded-deployment
/// analysis and a simulated cross-check.
pub fn table3() {
    banner("Table III — KMP scalability", "paper §XI, Table III");
    println!("{:<20} {:>8} {:>8}", "operation", "#msgs", "#bytes");
    for op in KeyOperation::ALL {
        println!(
            "{:<20} {:>8} {:>8}",
            op.label(),
            op.message_count(),
            op.byte_count()
        );
    }

    println!("\naggregate controller load for m switches, n links:");
    println!("  key initialization: 4m + 5n messages, 104m + 138n bytes");
    println!("  key update:         2m + 3n messages,  60m +  78n bytes");

    let s = NetworkScale::ONOS_PER_CONTROLLER;
    println!("\nONOS example (m=25, n=50 per controller):");
    println!(
        "  init:   {} messages, {:.1} KB   (paper: 350 messages, 9.5 KB)",
        s.init_messages(),
        s.init_bytes() as f64 / 1000.0
    );
    println!(
        "  update: {} messages, {:.1} KB   (paper prints 125 messages / 5.4 KB;",
        s.update_messages(),
        s.update_bytes() as f64 / 1000.0
    );
    println!("          its own 2m+3n formula gives 200 — see EXPERIMENTS.md)");

    let wan = ShardedDeployment::ONOS_WAN;
    println!("\n§XI sharded deployment (205 switches, 414 links, 8 controllers):");
    println!(
        "  worst controller: {} init messages, {:.1} KB",
        wan.init_messages_per_controller(),
        wan.init_bytes_per_controller() as f64 / 1000.0
    );
    println!(
        "  sequential init @2ms/op: {:.0} ms   (paper: ~150 ms)",
        wan.sequential_init_ns(2_000_000) as f64 / 1e6
    );
    println!(
        "  sequential update @1ms/op: {:.0} ms   (paper: ~75 ms)",
        wan.sequential_update_ns(1_000_000) as f64 / 1e6
    );
    println!(
        "  batched init (8-wide): {:.0} ms   (\"improves significantly in parallel\")",
        wan.batched_init_ns(2_000_000, 8) as f64 / 1e6
    );

    // Cross-check the analytic model against a real simulated bootstrap.
    let mut net = Network::build(
        Topology::chain(4, 50_000, 200_000),
        1,
        ControllerConfig::default(),
        0x7ab3,
        |_| None,
        |_, c| c,
    );
    let before = net.sim.stats().frames_delivered;
    net.bootstrap_keys();
    let frames = net.sim.stats().frames_delivered - before;
    let expected = NetworkScale {
        switches: 4,
        links: 3,
    }
    .init_messages();
    println!("\nsimulated bootstrap on a 4-switch chain (m=4, n=3):");
    println!("  frames on the wire: {frames}   analytic 4m+5n: {expected}");
}

/// §II motivation quantified: FCT inflation under the HULA attack.
pub fn motivation_fct() {
    banner(
        "§II motivation — flow completion time under the HULA attack",
        "paper §II-A, \"inflates flow completion time (FCT)\"",
    );
    let cfg = fct::FctConfig::default();
    println!(
        "{} flows over the Fig. 3 topology; mid->S5 bottlenecks at {:.1} Mbit/s\n",
        cfg.flows,
        cfg.bottleneck_bps as f64 / 1e6
    );
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>18}",
        "scenario", "mean FCT", "p95 FCT", "completed", "S4 traffic share"
    );
    for r in fct::run_all(cfg) {
        println!(
            "{:<22} {:>9.2} ms {:>9.2} ms {:>9}/{:<3} {:>17.1}%",
            r.scenario.label(),
            r.mean_fct_ns / 1e6,
            r.p95_fct_ns as f64 / 1e6,
            r.completed,
            r.total,
            100.0 * r.path_share[2],
        );
    }
    println!("\nthe forged probes congest one bottleneck (~6x mean FCT); P4Auth drops");
    println!("them and completion times return to the clean operating point.");
}

/// Machine-readable telemetry snapshot (`repro -- metrics`).
///
/// Runs an instrumented two-switch network through the full key bootstrap,
/// a batch of authenticated register operations, a MitM tamper, and a
/// replay, then prints the [`p4auth_telemetry::Snapshot`] as one JSON
/// object: verify accepts/rejects per reason, alert emit/suppress counts,
/// frames delivered/dropped, and the register-op latency histogram in
/// sim-ns.
pub fn metrics(args: &ReportArgs) {
    use p4auth_netsim::sim::TapAction;
    use p4auth_netsim::time::SimTime;
    use p4auth_telemetry::Registry;
    use p4auth_wire::ids::{PortId, RegId, SwitchId};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;

    banner(
        "metrics — machine-readable telemetry snapshot",
        "p4auth-telemetry registry over a tampered bootstrap-and-RW run",
    );

    let registry = Arc::new(Registry::with_event_capacity(4096));
    let mut net = Network::build(
        Topology::chain(2, 1_000, 200_000),
        1,
        ControllerConfig::default(),
        0xfeed_5eed,
        |_| None,
        |_, c| c.map_register(RegId::new(1), "ctr"),
    );
    for agent in net.switches.values() {
        agent
            .borrow_mut()
            .chassis_mut()
            .declare_register(p4auth_dataplane::register::RegisterArray::new("ctr", 8, 64));
    }
    net.enable_telemetry(registry.clone());
    net.bootstrap_keys();

    let s1 = SwitchId::new(1);
    let reg = RegId::new(1);

    // Clean authenticated register traffic, capturing the sealed request
    // frames for the replay below.
    let captured: Rc<RefCell<Vec<Vec<u8>>>> = Rc::new(RefCell::new(Vec::new()));
    let (cdp_link, _) = net
        .sim
        .topology()
        .link_at(s1, PortId::new(63))
        .expect("C-DP link exists");
    let sink = captured.clone();
    net.sim.install_tap(
        cdp_link,
        SwitchId::CONTROLLER,
        Box::new(move |_, _, _, bytes| {
            sink.borrow_mut().push(bytes.clone());
            TapAction::Forward
        }),
    );
    for i in 0..4 {
        net.controller_write(s1, reg, i, 100 + i as u64);
    }
    net.controller_read(s1, reg, 0);
    let deadline = SimTime::from_ns(net.sim.now().as_ns() + 50_000_000);
    net.sim.run_until(deadline);
    net.sim.remove_tap(cdp_link, SwitchId::CONTROLLER);

    // §II-A MitM: flip a payload byte in flight -> BadDigest reject + alert.
    net.sim.install_tap(
        cdp_link,
        SwitchId::CONTROLLER,
        Box::new(|_, _, _, bytes| {
            if let Some(b) = bytes.last_mut() {
                *b ^= 0xff;
            }
            TapAction::Forward
        }),
    );
    net.controller_write(s1, reg, 0, 999);
    let deadline = SimTime::from_ns(net.sim.now().as_ns() + 50_000_000);
    net.sim.run_until(deadline);
    net.sim.remove_tap(cdp_link, SwitchId::CONTROLLER);

    // §VIII replay: re-inject a previously delivered sealed request
    // verbatim -> Replayed reject + alert.
    let frame = captured
        .borrow()
        .first()
        .cloned()
        .expect("traffic captured");
    net.sim
        .inject_frame(SwitchId::CONTROLLER, PortId::new(0), frame);
    let deadline = SimTime::from_ns(net.sim.now().as_ns() + 50_000_000);
    net.sim.run_until(deadline);

    // Adaptive defence: a forged-digest flood on S1's C-DP channel crosses
    // the reject threshold, the controller auto-rolls the local key, and
    // the detection-to-mitigation latency lands in the
    // `defence_mitigation_latency_ns` histogram.
    net.enable_defence(p4auth_controller::DefenceConfig::default());
    let mut rng = p4auth_primitives::rng::SplitMix64::new(0x0f10_0d5e);
    for frame in p4auth_attacks::digest_flood::forged_acks(8, s1, 50_000, &mut rng) {
        // Injected out of S1's C-DP front-panel port (63, checked above).
        net.sim.inject_frame(s1, PortId::new(63), frame);
    }
    let deadline = SimTime::from_ns(net.sim.now().as_ns() + 200_000_000);
    net.sim.run_until(deadline);

    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter_total("auth_reject_bad_digest") > 0
            && snapshot.counter_total("auth_reject_replayed") > 0,
        "scenario must exercise both reject paths"
    );
    assert!(
        snapshot.counter("ctrl_defence_mitigations", "replica0") == Some(1),
        "the flood must trigger exactly one mitigation"
    );
    assert!(
        snapshot
            .histogram("defence_mitigation_latency_ns", "replica0")
            .is_some_and(|h| h.count == 1 && h.min > 0),
        "detection-to-mitigation latency must be measured in sim-ns"
    );
    let json = snapshot.to_json();
    print!("{json}");
    let bin = p4auth_telemetry::snapshot::bin::encode_snapshot(&snapshot);
    write_artifact(&args.out, &json, Some(&bin));
}

/// Replicated control plane (`repro -- replicas`): the full
/// fat-tree(4) scenario through 2 `ControllerReplica`s — bootstrap with
/// cross-partition redirects, a digest flood answered by exactly one
/// key rollover on the owning core, a control-plane MitM rejected by
/// the other partition, and a versioned bulk rollover with per-replica
/// fan-out latency. `--out` writes the deterministic JSON report that CI
/// diffs across two runs.
pub fn replicas(args: &ReportArgs) {
    banner(
        "replicas — replicated controller end-to-end",
        "statedb + daemons + ControllerReplica partitioning",
    );
    let report =
        p4auth_systems::replicated::run(p4auth_systems::replicated::ReplicatedConfig::default());
    println!(
        "{} replicas over {} switches (partitions {:?}, {} cross-partition links)",
        report.replicas, report.switches, report.partition_sizes, report.cross_partition_links
    );
    println!(
        "bootstrap {} ms; flood: {} mitigation(s), victim key rolled: {}",
        report.bootstrap_ns / 1_000_000,
        report.flood_mitigations,
        report.victim_key_rolled
    );
    println!(
        "mitm: {} tampered frame(s), {} reject(s) at the owner replica",
        report.mitm_tampered, report.mitm_rejects_at_owner
    );
    println!(
        "bulk rollover epoch {} complete: {}; fan-out latency {:?} ns",
        report.rollover_epoch, report.rollover_complete, report.fanout_ns
    );
    write_artifact(&args.out, &report.to_json(), None);
}

/// Streaming-telemetry timeline (`repro -- timeline`): runs the fig19-mix
/// fat-tree workload with periodic delta export driven by the sim clock
/// through `on_every_engine` — calendar and heap — which asserts the
/// timelines are equal, and with them their JSON and binary encodings,
/// before anything is printed. Also checks `baseline + Σdeltas`
/// reconstructs the final full snapshot and that the binary stream
/// decodes back exactly.
///
/// `--short` caps the workload for CI, and the export grid is 10µs of
/// sim-time. `--out` writes the JSON timeline to `<path>` and the binary
/// stream to `<path>.bin`.
pub fn timeline(args: &ReportArgs) {
    use p4auth_netsim::Timeline;
    use p4auth_systems::scaleload::{run_scale_timeline, ScaleConfig};

    banner(
        "timeline — streaming telemetry deltas on the sim clock",
        "ROADMAP \"streaming snapshots / delta export\"; fig19 request mix",
    );

    let interval_ns = 10_000;
    let frames = if args.short { 50 } else { 400 };
    let cfg = ScaleConfig::for_k(4, frames);

    let (fingerprint, timeline) = on_every_engine("timeline", |engine| {
        let (run, timeline) = run_scale_timeline(cfg, engine, interval_ns);
        (run.fingerprint(), timeline)
    });
    let (json, bin) = (timeline.to_json(), timeline.to_bin());
    assert_eq!(
        timeline.reconstruct(),
        timeline.final_snapshot,
        "baseline + Σdeltas must reconstruct the final snapshot"
    );
    assert_eq!(
        Timeline::from_bin(&bin).expect("binary stream decodes"),
        timeline
    );

    println!(
        "k={} frames/host={} interval={interval_ns}ns, heap = calendar: \
         {} events over {} sim-ns, {} non-empty deltas, {} binary bytes",
        cfg.k,
        frames,
        fingerprint.0,
        fingerprint.2,
        timeline.entries.len(),
        bin.len(),
    );
    print!("{json}");
    write_artifact(&args.out, &json, Some(&bin));
}

/// Causal flight recorder (`repro -- trace`): end-to-end trace spans on
/// the simulation clock, exported deterministically.
///
/// Two workloads run under tracing. The *fabric* workload (fig19-mix
/// user fabric with a link-flap plan) runs through `on_every_engine` —
/// calendar and heap — which asserts the span streams, and so their
/// `P4TR` encodings, are identical, with zero spans dropped: the
/// engine-invariance claim for the span layer. The *defence probe* (the
/// flood campaign on heap and calendar) yields the end-to-end trace —
/// frame hops, digest verdicts, statedb writes, daemon wakes, KMP
/// rounds — from which the mitigation critical path is printed: the
/// stage children of the `mitigation` root span must number at least
/// four and their widths must sum exactly to the root's width, which in
/// turn must equal the `defence_mitigation_latency_ns` histogram total.
///
/// `--short` caps the fabric size for CI. `--out` writes the probe trace
/// as Chrome `chrome://tracing` JSON to `<path>` and as `P4TR` binary to
/// `<path>.bin` (`repro -- decode` inverts the latter back to the same
/// JSON).
pub fn trace(args: &ReportArgs) {
    use p4auth_netsim::fault::FaultPlan;
    use p4auth_netsim::sched::SchedulerKind;
    use p4auth_netsim::topology::LinkId;
    use p4auth_systems::campaigns::traced_defence_probe;
    use p4auth_systems::userscale::{run_users_engine, UserScaleConfig};
    use p4auth_telemetry::trace::{
        chrome_trace_json, encode_trace, validate_well_formed, SpanKind,
    };
    use p4auth_telemetry::Registry;
    use std::sync::Arc;

    banner(
        "trace — causal flight recorder, engine-invariant by construction",
        "ROADMAP \"causal flight recorder\"; DESIGN §4h",
    );

    let users = if args.short { 400 } else { 2_000 };
    // Comfortably above what these workloads emit: the invariance and
    // critical-path claims are only meaningful at zero drops.
    const TRACE_CAP: usize = 1 << 16;

    // Fabric workload: same config and fault plan on every engine.
    let mut cfg = UserScaleConfig::for_k(4, users, 1);
    let mut plan = FaultPlan::new();
    plan.flap(LinkId(3), 40_000, 400_000);
    plan.flap(LinkId(11), 120_000, 500_000);
    cfg.faults = Some(plan);
    let reference = on_every_engine("fabric trace", |engine| {
        let registry = Arc::new(Registry::with_capacities(0, TRACE_CAP));
        let run = run_users_engine(&cfg, engine, Some(registry.clone()));
        assert!(run.frames_sent > 0, "the fabric must move frames");
        assert_eq!(
            registry.trace().dropped(),
            0,
            "{}: fabric trace dropped spans",
            engine.label()
        );
        registry.trace().sorted_records()
    });
    validate_well_formed(&reference).expect("fabric trace well-formed");
    println!(
        "fabric ({users} users, 2 flaps): {} spans, byte-identical across \
         heap/calendar ✓",
        reference.len()
    );

    // Defence probe: the end-to-end trace and the critical-path table.
    let probe = traced_defence_probe(SchedulerKind::Heap, TRACE_CAP);
    let cal = traced_defence_probe(SchedulerKind::Calendar, TRACE_CAP);
    assert_eq!(probe.trace().dropped(), 0, "probe trace dropped spans");
    let records = probe.trace().sorted_records();
    validate_well_formed(&records).expect("probe trace well-formed");
    assert_eq!(
        encode_trace(&records, 0),
        encode_trace(&cal.trace().sorted_records(), 0),
        "defence probe trace diverged between heap and calendar"
    );

    let root = records
        .iter()
        .find(|r| r.kind == SpanKind::Mitigation)
        .expect("the flood probe trips a mitigation");
    let stages: Vec<_> = records
        .iter()
        .filter(|r| r.parent_id == root.span_id)
        .collect();
    let total = root.end_ns - root.start_ns;
    println!("\nmitigation critical path (sim-ns):");
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>7}",
        "stage", "start", "end", "width", "share"
    );
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>6.1}%",
        "mitigation (total)", root.start_ns, root.end_ns, total, 100.0
    );
    let mut stage_sum = 0u64;
    for s in &stages {
        let width = s.end_ns - s.start_ns;
        stage_sum += width;
        println!(
            "  {:<22} {:>12} {:>12} {:>12} {:>6.1}%",
            s.kind.as_str(),
            s.start_ns,
            s.end_ns,
            width,
            100.0 * width as f64 / total.max(1) as f64
        );
    }
    assert!(
        stages.len() >= 4,
        "want >= 4 critical-path stages, got {}",
        stages.len()
    );
    assert_eq!(
        stage_sum, total,
        "stage widths must sum to the mitigation latency"
    );
    let snap = probe.snapshot();
    let hist = snap
        .histogram("defence_mitigation_latency_ns", "replica0")
        .expect("mitigation latency histogram present");
    assert_eq!(
        total, hist.max,
        "trace total must equal the recorded mitigation latency"
    );

    let json = chrome_trace_json(&records);
    let bin = encode_trace(&records, 0);
    println!(
        "\ndefence probe: {} spans decompose mitigation latency {total} ns \
         into {} stages ✓ ({} bytes P4TR, {} bytes JSON)",
        records.len(),
        stages.len(),
        bin.len(),
        json.len(),
    );
    write_artifact(&args.out, &json, Some(&bin));
}

/// Decodes a binary telemetry artifact (`repro -- decode <file>`) back to
/// its canonical JSON: the magic picks the format — `P4TR` trace (emitted
/// as Chrome trace JSON), `P4TL` timeline stream, `P4TS` single snapshot
/// or delta (told apart by the kind byte). Output goes to stdout, or to
/// `--out <path>`. CI's codec-equivalence gates diff this output against
/// the direct JSON export.
pub fn decode(input: &str, args: &ReportArgs) {
    use p4auth_netsim::timeline::{Timeline, TIMELINE_MAGIC};
    use p4auth_telemetry::codec::DecodeError;
    use p4auth_telemetry::snapshot::bin;
    use p4auth_telemetry::trace::{chrome_trace_json, decode_trace, TRACE_MAGIC};

    let buf = std::fs::read(input).unwrap_or_else(|e| die(format!("cannot read {input}: {e}")));
    let json = match buf.first_chunk::<4>() {
        Some(&TRACE_MAGIC) => decode_trace(&buf).map(|(records, _)| chrome_trace_json(&records)),
        Some(&TIMELINE_MAGIC) => Timeline::from_bin(&buf).map(|tl| tl.to_json()),
        Some(&bin::MAGIC) if buf.get(6) == Some(&bin::KIND_DELTA) => {
            bin::decode_delta(&buf).map(|d| d.to_json())
        }
        Some(&bin::MAGIC) => bin::decode_snapshot(&buf).map(|snap| snap.to_json()),
        _ => Err(DecodeError::BadMagic),
    }
    .unwrap_or_else(|e| die(format!("cannot decode {input}: {e}")));
    match args.out {
        Some(_) => write_artifact(&args.out, &json, None),
        None => print!("{json}"),
    }
}

/// User-scale report (`repro -- users`): the heavy-tailed fig19-style
/// arrival mix through aggregate host nodes on fat-tree(8) at 10k, 100k
/// and 1M modelled users at fixed aggregate offered load (per-user idle
/// gaps scale with the user count — more users sharing the same
/// access-port capacity), recording events/sec, frames/sec, wall-ns per
/// modelled user (asserted within 2× across the size sweep — the
/// near-constant per-user cost claim), per-user cost normalized by
/// simulated duration, and a peak-heap proxy from the repro binary's
/// counting allocator (zero when the report runs without it). The
/// smallest size is first cross-checked for fingerprint equality through
/// `on_every_engine`.
///
/// Short mode (`--short`, used by CI) sweeps 1k and 10k users on
/// fat-tree(4). `--out` writes the JSON (how `BENCH_users.json` is
/// regenerated); each run entry carries a `"fingerprint"` array of its
/// deterministic fields, which CI extracts and diffs across two runs.
/// `--baseline` fails the run if, for any size present in both, the
/// measured `ns_per_user` has grown more than 3× above the checked-in
/// value (the wall-clock-tolerant non-regression gate),
/// `peak_alloc_bytes` more than 1.5×, or the `fingerprint` differs in any
/// element (see `GATES`).
pub fn users(args: &ReportArgs) {
    use p4auth_systems::userscale::{run_users_engine, AggregateMode, UserScaleConfig};

    banner(
        "users — aggregate hosts: modelled users at near-constant per-user cost",
        "ROADMAP \"a million modelled hosts\"; fig19 mix at user scale",
    );

    let short = args.short;
    let (k, frames, sizes): (u16, u32, Vec<u64>) = if short {
        (4, 4, vec![1_000, 10_000])
    } else {
        (8, 4, vec![10_000, 100_000, 1_000_000])
    };
    let (mode, window_ns) = match UserScaleConfig::for_k(k, sizes[0], frames).mode {
        AggregateMode::Amortized { window_ns } => ("amortized", window_ns),
        AggregateMode::Exact => ("exact", 0),
    };

    println!(
        "{:>9} {:>5} {:>10} {:>10} {:>13} {:>13} {:>13} {:>9} {:>12} {:>9}",
        "users",
        "aggs",
        "events",
        "frames",
        "sim_ns",
        "events/s",
        "frames/s",
        "ns/user",
        "ns/usr/sims",
        "peak MiB"
    );
    let mut w = open_report("user_scale", short);
    w.field("k", k);
    w.field("frames_per_user", frames);
    w.field_str("mode", mode);
    w.field("base_window_ns", window_ns);
    open_rows(&mut w, &USERS);
    let mut runs = Vec::new();
    for (i, &users) in sizes.iter().enumerate() {
        let mut cfg = UserScaleConfig::for_k(k, users, frames);
        // Fixed aggregate offered load: the users share the access-port
        // capacity, so each user's mean idle gap grows with the user
        // count (the smallest size keeps the default fig19-style pacing).
        // Without this the 1M-user run would model a fabric overloaded
        // 100x beyond the 10k-user one and the per-user comparison would
        // measure queue pressure, not aggregation cost.
        let load_scale = users / sizes[0];
        if let p4auth_workloads::flows::ArrivalMix::HeavyTailed(ref mut ht) = cfg.mix {
            ht.idle_mean_ns *= load_scale;
        }
        // The amortized window is both the wake cadence and the batch
        // lookahead: too short and the per-window timer events dominate,
        // too long and every frame due inside the window sits
        // pre-scheduled in the event queue. √load balances the two (wake
        // count and queue depth then grow with the same factor —
        // DESIGN.md §4f).
        let window_scale = (load_scale as f64).sqrt().round().max(1.0) as u64;
        if let AggregateMode::Amortized { ref mut window_ns } = cfg.mode {
            *window_ns *= window_scale;
        }
        if i == 0 {
            // Engine cross-check on the smallest size: one fingerprint on
            // every engine, before anything is timed (this also warms the
            // allocator and page cache).
            on_every_engine(&format!("{users}-user fingerprint"), |engine| {
                run_users_engine(&cfg, engine, None).fingerprint()
            });
        }
        p4auth_telemetry::alloc::reset_peak();
        let live_before = p4auth_telemetry::alloc::live_bytes();
        let run = run_users_engine(&cfg, Engine::REFERENCE, None);
        let peak = p4auth_telemetry::alloc::peak_bytes().saturating_sub(live_before);
        let frames_per_sec = run.frames_sent as f64 / (run.wall_ns.max(1) as f64 / 1e9);
        println!(
            "{:>9} {:>5} {:>10} {:>10} {:>13} {:>13.0} {:>13.0} {:>9.1} {:>12.1} {:>9.1}",
            run.users,
            run.aggregates,
            run.events,
            run.frames_sent,
            run.sim_ns,
            run.events_per_sec(),
            frames_per_sec,
            run.ns_per_user(),
            run.ns_per_user_per_sim_sec(),
            peak as f64 / (1024.0 * 1024.0),
        );
        w.obj(Layout::INLINE);
        w.field("users", run.users);
        w.field("aggregates", run.aggregates);
        w.field("window_ns", window_ns * window_scale);
        let fingerprint = [
            ("events", run.events),
            ("frames_sent", run.frames_sent),
            ("frames_delivered", run.frames_delivered),
            ("sim_ns", run.sim_ns),
        ];
        for (key, v) in fingerprint {
            w.field(key, v);
        }
        w.key("fingerprint");
        w.vals(Layout::INLINE, fingerprint.map(|(_, v)| v));
        w.fixed("events_per_sec", run.events_per_sec(), 0);
        w.fixed("frames_per_sec", frames_per_sec, 0);
        w.fixed("ns_per_user", run.ns_per_user(), 1);
        w.fixed("ns_per_user_per_sim_sec", run.ns_per_user_per_sim_sec(), 1);
        w.field("peak_alloc_bytes", peak);
        let per_user = peak as f64 / run.users.max(1) as f64;
        w.fixed("peak_alloc_bytes_per_user", per_user, 1);
        w.end();
        runs.push(run);
    }

    // The tentpole claim: per-user wall cost must not grow more than 2×
    // across the sweep. With three or more rows the growth is measured
    // from the second row: the full sweep's first row (10k users) runs
    // for ~30 ms, so its ns/user is mostly timer noise and a 2× bound
    // against it fails on a quiet box now and then.
    let first = &runs[if runs.len() >= 3 { 1 } else { 0 }];
    let last = &runs[runs.len() - 1];
    let growth = last.ns_per_user() / first.ns_per_user();
    assert!(
        growth <= 2.0,
        "per-user cost grew {growth:.2}x from {} to {} users \
         ({:.1} -> {:.1} ns/user); aggregation is no longer near-constant",
        first.users,
        last.users,
        first.ns_per_user(),
        last.ns_per_user(),
    );
    println!(
        "  ns/user {} -> {} users: {:.1} -> {:.1} ({growth:.2}x <= 2.0x) ✓",
        first.users,
        last.users,
        first.ns_per_user(),
        last.ns_per_user(),
    );
    close_report(w, args, &USERS);
}

/// Scenario campaigns: deterministic fault injection (link flaps,
/// correlated groups, pod/switch failure, boot storms) composed with
/// attack overlays, each judged by explicit defence invariants
/// (`p4auth_systems::campaigns`).
///
/// Short mode (`--short`, used by CI) runs every campaign at 10k
/// modelled users; the full report runs at 100k. `--out` writes the JSON
/// (how `BENCH_scenarios.json` is regenerated). The JSON contains only
/// deterministic fields — two runs produce byte-identical files, which
/// CI diffs directly; wall-clock throughput is printed to stdout only.
/// `--baseline` points at the checked-in JSON and fails the run if any
/// campaign it recorded as passing no longer passes (the
/// verdict-regression gate), or if any recorded mitigation / rollover
/// latency percentile (`*_p50_ns` / `*_p99_ns`) more than doubles (the
/// latency-regression gate — see `GATES`).
pub fn scenarios(args: &ReportArgs) {
    use p4auth_systems::campaigns::{run_campaigns, CampaignConfig};

    banner(
        "scenarios — churn + attack campaigns with per-scenario defence invariants",
        "ROADMAP \"fault injection\"; DESIGN §4g",
    );

    let cfg = if args.short {
        CampaignConfig::short()
    } else {
        CampaignConfig::standard()
    };

    let verdicts = run_campaigns(&cfg);

    println!(
        "{:<30} {:>5} {:>7} {:>12} {:>12} {:>12} {:>9} {:>10} {:>10} {:>8} {:>7} {:>13}",
        "campaign",
        "f+a",
        "passed",
        "mit_lat_ns",
        "mit_p50_ns",
        "mit_p99_ns",
        "events",
        "sent",
        "delivered",
        "undeliv",
        "faults",
        "events/s"
    );
    let mut w = open_report("scenario_campaigns", args.short);
    w.field("users_per_campaign", cfg.users);
    open_rows(&mut w, &SCENARIOS);
    for v in &verdicts {
        println!(
            "{:<30} {:>5} {:>7} {:>12} {:>12} {:>12} {:>9} {:>10} {:>10} {:>8} {:>7} {:>13.0}",
            v.name,
            if v.fault_attack { "yes" } else { "no" },
            if v.passed() { "ok" } else { "FAIL" },
            v.mitigation_latency_ns
                .map_or_else(|| "-".into(), |ns| ns.to_string()),
            v.mitigation_latency_p50_ns
                .map_or_else(|| "-".into(), |ns| ns.to_string()),
            v.mitigation_latency_p99_ns
                .map_or_else(|| "-".into(), |ns| ns.to_string()),
            v.fabric.events,
            v.fabric.frames_sent,
            v.fabric.frames_delivered,
            v.fabric.frames_undeliverable,
            v.fabric.faults_applied,
            v.fabric.events_per_sec,
        );
        for c in &v.checks {
            println!(
                "    {} {:<32} {}",
                if c.passed { "✓" } else { "✗" },
                c.name,
                c.detail
            );
        }
        w.obj(Layout::INLINE);
        w.field_str("name", v.name);
        w.field("fault_attack", v.fault_attack);
        w.field("passed", v.passed());
        for (key, ns) in [
            ("mitigation_latency_ns", v.mitigation_latency_ns),
            ("mitigation_latency_p50_ns", v.mitigation_latency_p50_ns),
            ("mitigation_latency_p99_ns", v.mitigation_latency_p99_ns),
            ("rollover_fanout_p50_ns", v.rollover_fanout_p50_ns),
            ("rollover_fanout_p99_ns", v.rollover_fanout_p99_ns),
        ] {
            w.field(key, ns.map_or("null".into(), |ns| ns.to_string()));
        }
        w.key("checks");
        w.arr(Layout::INLINE);
        for c in &v.checks {
            w.obj(Layout::INLINE);
            w.field_str("name", c.name);
            w.field("passed", c.passed);
            w.end();
        }
        w.end();
        w.key("fabric");
        w.obj(Layout::INLINE);
        w.field("users", v.fabric.users);
        w.field("events", v.fabric.events);
        w.field("frames_sent", v.fabric.frames_sent);
        w.field("frames_delivered", v.fabric.frames_delivered);
        w.field("frames_undeliverable", v.fabric.frames_undeliverable);
        w.field("faults_applied", v.fabric.faults_applied);
        w.field("sim_ns", v.fabric.sim_ns);
        w.end();
        w.end();
    }

    let fault_attack = verdicts.iter().filter(|v| v.fault_attack).count();
    assert!(
        verdicts.len() >= 5 && fault_attack >= 3,
        "campaign roster shrank: {} campaigns, {fault_attack} fault+attack",
        verdicts.len()
    );
    for v in &verdicts {
        for c in v.checks.iter().filter(|c| !c.passed) {
            eprintln!("FAILED {}/{}: {}", v.name, c.name, c.detail);
        }
        assert!(v.passed(), "campaign {} failed its invariants", v.name);
    }
    println!(
        "  {} campaigns ({fault_attack} fault+attack) at {} users: all invariants hold ✓",
        verdicts.len(),
        cfg.users
    );
    close_report(w, args, &SCENARIOS);
}

/// §XI digest-width ablation.
pub fn ablation_digest() {
    banner(
        "§XI ablation — digest width vs. cost",
        "paper §XI discussion",
    );
    let device = DeviceCapacity::tofino();
    let narrow = ProgramResources::p4auth_modules(32, 1, DigestWidth::W32);
    println!(
        "{:>6} {:>12} {:>8} {:>8} {:>14} {:>22}",
        "bits", "hash units", "Δhash", "stages", "recirculations", "P(forge in 1M tries)"
    );
    for width in DigestWidth::ALL {
        let prog = ProgramResources::p4auth_modules(32, 1, width);
        let full = ProgramResources::baseline_l3().plus(prog);
        let delta =
            100.0 * (prog.hash_units as f64 - narrow.hash_units as f64) / narrow.hash_units as f64;
        println!(
            "{:>6} {:>12} {:>7.0}% {:>8} {:>14} {:>22.3e}",
            width.bits(),
            prog.hash_units,
            delta,
            prog.stages,
            full.recirculations(&device),
            bruteforce::digest_guess_success_probability(1_000_000, width.bits() as u32),
        );
    }
    println!("\npaper: a 256-bit digest needs ~560% more hash-distribution units and");
    println!("+100% stages, forcing recirculations (100s of ns each).");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gated field of a users row that never varies in these fixtures.
    const NS: &str = "\"ns_per_user\": 2000.0";

    /// The fingerprint of every users row in these fixtures.
    const FP: &str = "\"fingerprint\": [232078, 40000, 40000, 510091]";

    /// A one-row users report whose 10k-user run peaked at `peak` heap
    /// bytes.
    fn users_run(peak: &str) -> String {
        format!("{{\"runs\": [{{\"users\": 10000, \"peak_alloc_bytes\": {peak}, {NS}, {FP}}}]}}")
    }

    #[test]
    fn whitespace_drifted_baseline_still_gates() {
        // A line scanner looking for `"users": 10000,` skips this valid
        // file, and the gate would pass without comparing.
        let drifted = users_run("1000").replace("[{\"users\": 10000,", "[\n  {\"users\": 10000 ,");
        let err = check_gates(&USERS, &drifted, &users_run("1501")).unwrap_err();
        let want = "regressed: users 10000: peak_alloc_bytes 1501";
        assert!(err.contains(want), "{err}");
        let lines = check_gates(&USERS, &drifted, &users_run("1500")).unwrap();
        assert_eq!(lines.len(), 3, "every gated field compared: {lines:?}");
    }

    /// A users run whose deterministic fields moved is another run, however
    /// close its heap and its time: any changed, reordered, missing or
    /// extra element fails the gate, and so does a fingerprint that is
    /// absent or not an array on either side.
    #[test]
    fn a_moved_fingerprint_fails_the_gate() {
        let base = users_run("1000");
        let fp = "[232078, 40000, 40000, 510091]";
        for moved in [
            "[232079, 40000, 40000, 510091]",
            "[40000, 232078, 40000, 510091]",
            "[232078, 40000, 40000]",
            "[232078, 40000, 40000, 510091, 0]",
            "null",
            "\"232078 40000 40000 510091\"",
        ] {
            let run = base.replace(fp, moved);
            for (baseline, current) in [(&base, &run), (&run, &base)] {
                let e = check_gates(&USERS, baseline, current).unwrap_err();
                assert!(e.contains("users 10000: fingerprint"), "{moved}: {e}");
            }
        }
        let bare = base.replace(&format!(", {FP}"), "");
        let e = check_gates(&USERS, &bare, &bare).unwrap_err();
        assert!(
            e.contains("not comparable: users 10000: fingerprint"),
            "{e}"
        );
    }

    #[test]
    fn gates_fail_closed() {
        let run = users_run("1000");
        let err = |baseline: &str| check_gates(&USERS, baseline, &run).unwrap_err();
        // No size of this run in the baseline: nothing would be compared.
        let e = err(&users_run("1000").replace("10000", "1000000"));
        assert!(e.contains("no users of this run"), "{e}");
        // The row is there, the gated field is not (or is not a number).
        for peak in ["", ", \"peak_alloc_bytes\": \"little\""] {
            let e = err(&format!("{{\"runs\": [{{\"users\": 10000, {NS}{peak}}}]}}"));
            let want = "not comparable: users 10000: peak_alloc_bytes";
            assert!(e.contains(want), "{e}");
        }
        assert!(err("{\"runs\": [").contains("not valid JSON"));
        assert!(err("{}").contains("no \"runs\" array"));
    }

    /// A scenarios report of two campaigns: `flood` with each nullable
    /// gated field set to `flood`'s value, `churn` with `churn`'s (a
    /// campaign with no mitigation and no rollover); `""` leaves the
    /// fields out.
    fn campaigns(flood: &str, churn: &str) -> String {
        let row = |name: &str, v: &str| {
            let fields: String = GATES
                .iter()
                .filter(|g| g.3 && !v.is_empty())
                .map(|g| format!(", \"{}\": {v}", g.1))
                .collect();
            format!("{{\"name\": \"{name}\", \"passed\": true{fields}}}")
        };
        let (flood, churn) = (row("flood", flood), row("churn", churn));
        format!("{{\"campaigns\": [{flood}, {churn}]}}")
    }

    #[test]
    fn null_percentiles_are_the_one_tolerated_absence() {
        let run = campaigns("100", "null");
        // A row may carry null or lack the field: only the other row's
        // percentiles and both verdicts gate.
        for baseline in [&run, &campaigns("100", "")] {
            let lines = check_gates(&SCENARIOS, baseline, &run).unwrap();
            assert_eq!(lines.len(), 2 + 4, "{lines:?}");
        }
        let e = check_gates(&SCENARIOS, &run, &campaigns("201", "null")).unwrap_err();
        assert!(e.contains("regressed"), "more than 2x: {e}");
        let e = check_gates(&SCENARIOS, &run, &campaigns("null", "null")).unwrap_err();
        assert!(e.contains("not comparable"), "this run lost it: {e}");
        let failing = run.replacen("true", "false", 1);
        let e = check_gates(&SCENARIOS, &run, &failing).unwrap_err();
        assert!(e.contains("regressed: name flood: passed"), "{e}");
    }

    /// A nullable gate whose baseline is `null` (or absent) in every row
    /// this run matches has compared nothing, and that fails: it does not
    /// pass by default.
    #[test]
    fn a_nullable_gate_with_no_baseline_value_fails() {
        let run = campaigns("100", "100");
        for baseline in [campaigns("null", "null"), campaigns("", "")] {
            let e = check_gates(&SCENARIOS, &baseline, &run).unwrap_err();
            let want = "no name of this run has a mitigation_latency_p50_ns";
            assert!(
                e.contains(want) && e.contains("nothing was compared"),
                "{e}"
            );
        }
    }

    #[test]
    fn checked_in_baselines_resolve_every_gate() {
        // Gating each checked-in file against itself walks every selector
        // and field the table names: a regenerated or hand-edited baseline
        // the table no longer matches fails here, not in a later CI step.
        for (of, text) in [
            (&USERS, include_str!("../../../BENCH_users.json")),
            (&SCENARIOS, include_str!("../../../BENCH_scenarios.json")),
        ] {
            check_gates(of, text, text).unwrap_or_else(|e| panic!("{}: {e}", of.0));
            let doc = parse_json(text).unwrap();
            let rows = doc.get(of.1).and_then(Value::as_array).unwrap();
            for Gate(_, field, ..) in GATES.iter().filter(|g| g.0 .0 == of.0) {
                let missing = rows.iter().find(|r| r.get(field).is_none());
                assert_eq!(missing, None, "{}: a row without {field}", of.0);
            }
        }
        assert_eq!(GATES.len(), 8, "a new gate needs its baseline listed above");
    }
}
