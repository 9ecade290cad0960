//! Host-cost benchmark and layer ledger for the P4Auth reproduction.
//!
//! Drives the program through public functions only and times them from
//! outside. See `README.md` for the metrics, the workloads and how to read
//! the trace; `BENCHMARK.json` at the repository root is the contract this
//! binary implements.
//!
//! ```text
//! p4auth-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! p4auth-benchmark run   [--seed <n>] [--seconds <s>] [--reps <n>] [--quick] [--traced]
//! p4auth-benchmark agree [--seconds <s>] [--reps <n>] [--quick]
//! p4auth-benchmark manifest | layers
//! ```

mod adapt;
mod alloc;
mod catalog;
mod hostile;
mod probes;
mod run;
mod sets;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Command-line options; every flag takes one value except the switches
/// `--quick` and `--traced`.
#[derive(Debug, Default, PartialEq)]
pub struct Options {
    pub command: Option<String>,
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub reps: Option<usize>,
    pub quick: bool,
    pub traced: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let bad = |v: &str| format!("{arg}: cannot read {v:?}");
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--seconds" => o.seconds = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--reps" => o.reps = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--quick" => o.quick = true,
            "--traced" => o.traced = true,
            "run" | "agree" | "manifest" | "layers" if o.command.is_none() => {
                o.command = Some(arg.clone())
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// One run of one workload, as the contract in BENCHMARK.json asks.
fn single(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let w = Workload::from_name(name).ok_or(format!("no workload {name:?}"))?;
    let seed = o.seed.ok_or("--seed is required")?;
    let seconds = o.seconds.unwrap_or(catalog::RUN_SECONDS as f64);
    let outcome = if o.trace {
        run::traced(w, seed, seconds, o.quick)?
    } else {
        run::end_to_end(w, seed, seconds, o.quick)?
    };
    run::print_metrics(w, &outcome);
    println!("{}", outcome.to_json());
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|o| match o.command.as_deref() {
        Some("manifest") => {
            print!("{}", catalog::manifest());
            Ok(true)
        }
        Some("layers") => {
            print!("{}", catalog::layers_table());
            Ok(true)
        }
        Some("run") => sets::run(&o),
        Some("agree") => sets::agree(&o),
        _ => single(&o),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("an output check failed");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_command_line() {
        let o = parse(&args("--workload auth_rw --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(o.workload.as_deref(), Some("auth_rw"));
        assert_eq!((o.seed, o.seconds, o.trace), (Some(7), Some(12.0), true));
        assert_eq!(o.command, None);
    }

    #[test]
    fn parses_the_set_commands_and_rejects_nonsense() {
        let o = parse(&args("run --quick --reps 2 --traced")).unwrap();
        assert_eq!(o.command.as_deref(), Some("run"));
        assert!(o.quick && o.traced && o.reps == Some(2));
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seed")).is_err());
        assert!(parse(&args("--bogus")).is_err());
        assert!(single(&parse(&args("--workload nope --seed 1")).unwrap()).is_err());
    }
}
