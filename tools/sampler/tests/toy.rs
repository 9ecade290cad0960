//! The sampler against a child whose profile is known: `toy`'s `hot`
//! does four times the work of its `cool`.

use std::process::Command;

/// The share (in %) the report's inclusive table gives the first row
/// naming `function`.
fn inclusive_share(report: &str, function: &str) -> f64 {
    let table = report
        .split("## inclusive")
        .nth(1)
        .expect("the report has an inclusive table");
    table
        .lines()
        .find(|l| l.ends_with(function))
        .and_then(|l| l.split('%').next())
        .and_then(|p| p.trim().parse().ok())
        .unwrap_or_else(|| panic!("{function} is not in the report:\n{report}"))
}

#[test]
fn samples_a_toy_child_and_finds_its_hot_function() {
    let out = Command::new(env!("CARGO_BIN_EXE_sampler"))
        .args(["--interval-ms", "1", "--", env!("CARGO_BIN_EXE_toy"), "120"])
        .output()
        .expect("the sampler runs");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let samples: u64 = report
        .strip_prefix("# ")
        .and_then(|r| r.split(' ').next())
        .and_then(|n| n.parse().ok())
        .expect("the report starts with its sample count");
    assert!(samples >= 50, "too few samples to judge:\n{report}");
    let (hot, cool) = (
        inclusive_share(&report, "toy::hot"),
        inclusive_share(&report, "toy::cool"),
    );
    // 80 / 20 by work; sampling noise and the loop bodies' differing
    // costs leave a wide margin around it.
    assert!(
        hot > 55.0 && hot > 2.0 * cool,
        "hot {hot} %, cool {cool} %:\n{report}"
    );
    // Self time lands on source lines inside `hot`.
    assert!(report.contains("src/bin/toy.rs:"), "{report}");
}
