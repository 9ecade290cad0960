//! `repro` — regenerate every table and figure of the paper's evaluation
//! in one run, without Criterion's timing loops.
//!
//! ```sh
//! cargo run -p p4auth-bench --bin repro                       # everything
//! cargo run -p p4auth-bench --bin repro -- fig17              # one experiment
//! cargo run -p p4auth-bench --bin repro -- scenarios --short
//! cargo run -p p4auth-bench --bin repro -- users --baseline BENCH_users.json
//! cargo run -p p4auth-bench --bin repro -- timeline --out /tmp/tl.json
//! cargo run -p p4auth-bench --bin repro -- decode /tmp/tl.json.bin
//! cargo run -p p4auth-bench --bin repro -- digests --check ARTEFACTS.txt
//! ```
//!
//! `--short` (CI-sized workloads) reaches the users, timeline, trace and
//! scenarios reports as a [`ReportArgs`]. `--out <path>` writes the one
//! selected experiment's machine-readable output to `<path>` (plus
//! `<path>.bin` for the binary form, where one exists); `--baseline
//! <path>` points it at its checked-in JSON for the CI non-regression
//! gates, which fail closed — as does the command line: an argument
//! starting with `--` that is not one of these three flags is an error,
//! not an experiment filter. `decode <file>` re-emits a binary artifact
//! (`P4TS` snapshot/delta, `P4TL` timeline or `P4TR` trace) as canonical
//! JSON. `digests [--check <file> | --bless <file>]` prints, checks or
//! rewrites the pinned artefact list ([`p4auth_bench::digests`]).

use p4auth_bench::digests;
use p4auth_bench::report::{self, die, ReportArgs};
use p4auth_telemetry::alloc::CountingAlloc;

/// The repro binary meters its own heap: reports read the live/peak
/// counters as a deterministic memory-footprint proxy (`repro -- users`).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The experiment writes machine-readable output (`--out`).
const OUT: u8 = 1;
/// The experiment has a checked-in baseline gate (`--baseline`).
const BASELINE: u8 = 2;

/// Name, report, and which of `--out` / `--baseline` it accepts.
type Experiment = (&'static str, fn(&ReportArgs), u8);

const EXPERIMENTS: [Experiment; 17] = [
    ("table1", |_| report::table1(), 0),
    ("fig16", |_| report::fig16(), 0),
    ("fig17", |_| report::fig17(), 0),
    ("fig18", |_| report::fig18(), 0),
    ("fig19", |_| report::fig19(), 0),
    ("fig20", |_| report::fig20(), 0),
    ("fig21", |_| report::fig21(), 0),
    ("table2", |_| report::table2(), 0),
    ("table3", |_| report::table3(), 0),
    ("fct", |_| report::motivation_fct(), 0),
    ("metrics", report::metrics, OUT),
    ("users", report::users, OUT | BASELINE),
    ("timeline", report::timeline, OUT),
    ("trace", report::trace, OUT),
    ("replicas", report::replicas, OUT),
    ("scenarios", report::scenarios, OUT | BASELINE),
    ("ablation", |_| report::ablation_digest(), 0),
];

const USAGE: &str = "usage: repro [<experiment>...] [--short] [--out <path>] \
                     [--baseline <path>] | repro decode <file> [--out <path>] \
                     | repro digests [--check <file> | --bless <file>]";

/// Splits the command line into positional experiment names
/// (substring-matched against the table) and the typed flags. Anything
/// else that starts with `--` is an error: a mistyped `--short` must not
/// silently select the full-size run.
fn parse(argv: &[String]) -> Result<(Vec<String>, ReportArgs), String> {
    let mut filter = Vec::new();
    let mut args = ReportArgs {
        short: false,
        out: None,
        baseline: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut operand = |what: &str| {
            it.next()
                .cloned()
                .ok_or(format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--short" => args.short = true,
            "--baseline" => args.baseline = Some(operand("a JSON path")?),
            "--out" => args.out = Some(operand("a file path")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}\n{USAGE}")),
            name => filter.push(name.to_string()),
        }
    }
    Ok((filter, args))
}

/// `digests`: prints the artefact lines, or checks them against (exits 1
/// naming every moved artefact) or rewrites a pinned file.
fn digests(args: &[String]) {
    let mode = match args {
        [] => None,
        [flag, file] if flag == "--check" || flag == "--bless" => Some((flag.as_str(), file)),
        _ => die(format!(
            "usage: digests [--check <file> | --bless <file>]\n{USAGE}"
        )),
    };
    let exe = std::env::current_exe().unwrap_or_else(|e| die(format!("no executable path: {e}")));
    let dir = std::env::temp_dir().join(format!("p4auth-digests-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| die(format!("cannot create {}: {e}", dir.display())));
    let lines = digests::collect(&exe, &dir);
    // Best effort: the files are spent either way.
    let _ = std::fs::remove_dir_all(&dir);
    let lines = lines.unwrap_or_else(|e| die(e));
    match mode {
        None => print!("{lines}"),
        Some(("--bless", file)) => std::fs::write(file, &lines)
            .unwrap_or_else(|e| die(format!("cannot write {file}: {e}"))),
        Some((_, file)) => {
            let pinned = std::fs::read_to_string(file)
                .unwrap_or_else(|e| die(format!("cannot read {file}: {e}")));
            let moved = digests::moved(&pinned, &lines);
            if !moved.is_empty() {
                print!("{lines}");
                die(format!(
                    "{} artefact(s) moved against {file}: {}",
                    moved.len(),
                    moved.join(", ")
                ));
            }
            println!("{} artefacts match {file}", lines.lines().count());
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `digests` takes its own two flags, so it is split off before the
    // experiment flags are parsed.
    if argv.first().map(String::as_str) == Some("digests") {
        return digests(&argv[1..]);
    }
    let (filter, args) = parse(&argv).unwrap_or_else(|e| die(e));

    // `decode <file>` is a converter, not an experiment: handle it before
    // the table loop so the file operand is not treated as a filter.
    if filter.first().map(String::as_str) == Some("decode") {
        match (&filter[1..], &args.baseline) {
            ([input], None) => return report::decode(input, &args),
            _ => die("usage: decode <binary artifact> [--out <path>]"),
        }
    }
    // `--out` / `--baseline` name one file, so they need exactly one
    // experiment, spelled in full, that has such a file.
    for (flag, given, bit) in [
        ("--out", args.out.is_some(), OUT),
        ("--baseline", args.baseline.is_some(), BASELINE),
    ] {
        let accepts = |name: &str| {
            EXPERIMENTS
                .iter()
                .any(|&(n, _, bits)| n == name && bits & bit != 0)
        };
        if given && !matches!(filter.as_slice(), [name] if accepts(name)) {
            let names: Vec<&str> = EXPERIMENTS
                .iter()
                .map(|e| e.0)
                .filter(|n| accepts(n))
                .collect();
            die(format!("{flag} needs exactly one of: {}", names.join(", ")));
        }
    }

    let mut ran = 0;
    for (name, run, _) in EXPERIMENTS {
        if filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str())) {
            run(&args);
            ran += 1;
        }
    }
    if ran == 0 {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        die(format!(
            "no experiment matches {filter:?}; available: {} decode",
            names.join(" ")
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(line: &str) -> Result<(Vec<String>, ReportArgs), String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse(&argv)
    }

    #[test]
    fn known_flags_and_names_parse() {
        let (filter, args) = parse_words("users --short --out u.json --baseline b.json").unwrap();
        assert_eq!(filter, ["users"]);
        assert!(args.short);
        assert_eq!(args.out.as_deref(), Some("u.json"));
        assert_eq!(args.baseline.as_deref(), Some("b.json"));
    }

    #[test]
    fn unknown_flags_are_errors_not_filters() {
        // The two flags that went with the sharded engine, and two typos:
        // each used to land in the experiment filter, so `scenarios
        // --shrot` ran the full mode and exited 0.
        for flag in ["shards", "stagger", "shrot", "bogus-flag"] {
            let err = parse_words(&format!("timeline --short --{flag} 4")).unwrap_err();
            assert_eq!(err, format!("unknown flag --{flag}\n{USAGE}"));
        }
    }

    #[test]
    fn a_flag_missing_its_operand_is_an_error() {
        for (line, flag) in [("users --out", "--out"), ("users --baseline", "--baseline")] {
            let err = parse_words(line).unwrap_err();
            assert!(err.starts_with(&format!("{flag} needs ")), "{line}: {err}");
            assert!(err.ends_with(USAGE), "{line}: {err}");
        }
    }
}
