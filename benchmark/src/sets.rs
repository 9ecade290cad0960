//! Sets of runs: `run` (every workload several times, one child process
//! per run so that peak RSS is per workload) and `agree` (two sets, checked
//! against the bounds in the catalogue, the way the acceptance rule does).

use crate::catalog::{self, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::{self, Workload};
use crate::Options;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// The last line of a child's standard output, read back.
#[derive(Debug, Default, PartialEq)]
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Reads the one JSON shape `Outcome::to_json` writes; not a general parser.
fn read_report(line: &str) -> Option<Report> {
    fn after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
        s.find(key).map(|i| s[i + key.len()..].trim_start())
    }
    fn number(s: &str) -> Option<f64> {
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(s.len());
        s[..end].parse().ok()
    }
    let mut report = Report {
        correct: after(line, "\"correct\":")?.starts_with("true"),
        attempted: number(after(line, "\"attempted\":")?)? as u64,
        failed: number(after(line, "\"failed\":")?)? as u64,
        metrics: BTreeMap::new(),
    };
    let mut rest = after(line, "\"metrics\": {")?;
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let value = after(&rest[name_end..], "\"value\":")?;
        report.metrics.insert(name.to_string(), number(value)?);
        rest = &value[value.find('}')? + 1..];
    }
    Some(report)
}

/// Runs this binary once more as a child and reads its report back.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let report = stdout.lines().last().and_then(read_report);
    match report {
        Some(r) if out.status.success() || !r.correct => Ok(r),
        _ => Err(format!(
            "{} seed {seed}: child ended with {}",
            w.name(),
            out.status
        )),
    }
}

/// End-to-end samples per (workload, metric), plus the failure count.
#[derive(Default)]
struct Set {
    samples: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    attempted: u64,
    failed: u64,
}

/// `reps` end-to-end runs of every workload, round-robin across workloads,
/// seeds `first_seed..first_seed + reps`.
fn end_to_end_set(first_seed: u64, reps: usize, seconds: f64, quick: bool) -> Result<Set, String> {
    let mut set = Set::default();
    for rep in 0..reps {
        for w in workloads::ALL {
            let r = child(w, first_seed + rep as u64, seconds, false, quick)?;
            set.attempted += r.attempted;
            set.failed += r.failed;
            for m in &END_TO_END {
                let v = *r.metrics.get(m.name).ok_or(format!("{} missing", m.name))?;
                set.samples.entry((w.name(), m.name)).or_default().push(v);
            }
        }
    }
    Ok(set)
}

fn print_set(set: &Set) {
    println!(
        "{:<12} {:<16} {:>16} {:>16} {:>16} {:>3}  unit",
        "workload", "metric", "median", "min", "max", "n"
    );
    for ((w, name), v) in &set.samples {
        println!(
            "{:<12} {:<16} {:>16.6} {:>16.6} {:>16.6} {:>3}  {}",
            w,
            name,
            median(v),
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            v.len(),
            catalog::unit_of(name).unwrap_or(""),
        );
    }
    println!(
        "failed_share {} ({} failed of {} attempted)",
        set.failed as f64 / set.attempted.max(1) as f64,
        set.failed,
        set.attempted
    );
}

/// `run`: one set; with `--traced`, one traced run per workload as well.
pub fn run(o: &Options) -> Result<bool, String> {
    let seed = o.seed.unwrap_or(1);
    let seconds = o.seconds.unwrap_or(catalog::RUN_SECONDS as f64);
    let set = end_to_end_set(seed, o.reps.unwrap_or(5), seconds, o.quick)?;
    print_set(&set);
    let mut ok = set.failed == 0;
    if o.traced {
        for w in workloads::ALL {
            // The child prints its ledger and per-layer table itself.
            ok &= child(w, seed, seconds, true, o.quick)?.correct;
        }
    }
    Ok(ok)
}

/// `agree`: two sets of the same commit must agree within each metric's
/// bound, each set's spread must stay within it, and every exact count
/// must be identical.
pub fn agree(o: &Options) -> Result<bool, String> {
    let seconds = o.seconds.unwrap_or(catalog::RUN_SECONDS as f64);
    let reps = o.reps.unwrap_or(10);
    let mut sets = Vec::new();
    let mut exact: Vec<BTreeMap<String, f64>> = Vec::new();
    for label in ["first", "second"] {
        eprintln!("{label} set");
        sets.push(end_to_end_set(1, reps, seconds, o.quick)?);
        let mut counts = BTreeMap::new();
        for w in workloads::ALL {
            let r = child(w, 1, seconds, true, o.quick)?;
            for p in PER_LAYER.iter().filter(|p| p.exact) {
                counts.insert(format!("{} on {}", p.name, w.name()), r.metrics[p.name]);
            }
        }
        exact.push(counts);
    }
    let mut ok = sets.iter().all(|s| s.failed == 0);
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "disagree", "bound"
    );
    for m in &END_TO_END {
        for w in workloads::ALL {
            let key = (w.name(), m.name);
            let (a, b) = (&sets[0].samples[&key], &sets[1].samples[&key]);
            let (ma, mb) = (median(a), median(b));
            let disagree = (mb - ma).abs() / ma;
            let spreads = [spread(a).unwrap_or(0.0), spread(b).unwrap_or(0.0)];
            // Set-up time is exempt from the spread rule only.
            let steady = m.name == catalog::SETUP_S || spreads.iter().all(|s| *s <= m.bound);
            let verdict = if disagree <= m.bound && steady {
                ""
            } else {
                "  <-- outside"
            };
            ok &= disagree <= m.bound && steady;
            println!(
                "{:<12} {:<16} {:>14.6} {:>14.6} {:>9.4} {:>9.4} {:>9.4} {:>7}{}",
                w.name(),
                m.name,
                ma,
                mb,
                spreads[0],
                spreads[1],
                disagree,
                m.bound,
                verdict
            );
        }
    }
    for (name, v) in &exact[0] {
        if exact[1][name] != *v {
            println!("exact count {name}: {v} then {}", exact[1][name]);
            ok = false;
        }
    }
    println!("{} exact counts compared", exact[0].len());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Outcome;

    #[test]
    fn reads_back_what_outcome_writes() {
        let o = Outcome {
            attempted: 1234,
            failed: 2,
            metrics: vec![
                (catalog::SETUP_S, 0.001_25),
                (catalog::UNITS_PER_S, 2.5e6),
                (catalog::PEAK_RSS_BYTES, 104_857_600.0),
            ],
        };
        let r = read_report(&o.to_json()).unwrap();
        assert_eq!((r.correct, r.attempted, r.failed), (false, 1234, 2));
        assert_eq!(r.metrics.len(), 3);
        assert_eq!(r.metrics[catalog::SETUP_S], 0.001_25);
        assert_eq!(r.metrics[catalog::UNITS_PER_S], 2.5e6);
        assert_eq!(read_report("not a report"), None);
    }
}
