//! Gate on the claim ledger (EXPERIMENTS.md, "Claim ledger"): every row
//! has one of the five statuses, every test a row names as
//! `file::function` still exists as a `#[test]` in that file, a row that
//! says it is gated names at least one test, and the ledger's own
//! "k of m claims are gated on their own system" line matches its rows.
//! So a renamed or deleted test cannot orphan a claim silently.

use std::fs;
use std::path::Path;

/// The five statuses a claim can have.
const STATUSES: [&str; 5] = [
    "gated on the system it was made about",
    "gated on the generic harness only",
    "printed but not asserted",
    "not asserted",
    "contradicted",
];

/// One ledger row: its number, the tests or gates cell and the status.
struct Row<'a> {
    number: &'a str,
    tests: &'a str,
    status: &'a str,
}

/// The rows of the table under the "## Claim ledger" heading.
fn ledger_rows(markdown: &str) -> Vec<Row<'_>> {
    let section = markdown
        .split("\n## ")
        .find(|s| s.starts_with("Claim ledger"))
        .unwrap_or("");
    section
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line
                .strip_prefix('|')?
                .strip_suffix('|')?
                .split('|')
                .map(str::trim)
                .collect();
            let number = *cells.first()?;
            if cells.len() != 6 || !number.chars().all(|c| c.is_ascii_digit()) {
                return None; // the header or its rule
            }
            Some(Row {
                number,
                tests: cells[4],
                status: cells[5],
            })
        })
        .collect()
}

/// The `file::function` names in a cell's backticked spans.
fn named_tests(cell: &str) -> Vec<(&str, &str)> {
    cell.split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|span| span.split_once(".rs::"))
        .collect()
}

/// Whether `source` defines `name` as a `#[test]` function: an attribute
/// block directly above `fn name(` that holds `#[test]`.
fn defines_test(source: &str, name: &str) -> bool {
    let lines: Vec<&str> = source.lines().map(str::trim).collect();
    let signature = format!("fn {name}(");
    lines.iter().enumerate().any(|(i, line)| {
        line.starts_with(&signature)
            && lines[..i]
                .iter()
                .rev()
                .take_while(|above| above.starts_with("#["))
                .any(|above| *above == "#[test]")
    })
}

#[test]
fn every_claim_names_live_tests_and_a_known_status() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let markdown = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let rows = ledger_rows(&markdown);
    assert!(!rows.is_empty(), "no claim ledger table in EXPERIMENTS.md");
    let mut problems = Vec::new();
    for row in &rows {
        if !STATUSES.contains(&row.status) {
            problems.push(format!(
                "row {}: unknown status {:?}",
                row.number, row.status
            ));
        }
        let tests = named_tests(row.tests);
        if row.status.starts_with("gated") && tests.is_empty() {
            problems.push(format!("row {}: gated, but names no test", row.number));
        }
        for (file, name) in tests {
            let path = root.join(format!("{file}.rs"));
            let defined = fs::read_to_string(&path).is_ok_and(|src| defines_test(&src, name));
            if !defined {
                problems.push(format!("row {}: no test {file}.rs::{name}", row.number));
            }
        }
    }
    let own = rows.iter().filter(|r| r.status == STATUSES[0]).count();
    let tally = format!(
        "{own} of {} claims are gated on their own system",
        rows.len()
    );
    if !markdown.contains(&tally) {
        problems.push(format!("the ledger's tally does not read \"{tally}\""));
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn the_checker_finds_tests_and_misses_renames() {
    let ledger = "# Doc\n\n## Claim ledger\n\n\
                  | # | section | claim | system | test or gate | status |\n\
                  |---|---|---|---|---|---|\n\
                  | 1 | §X | c | s | `tests/a.rs::kept`, `repro -- x` | contradicted |\n\
                  \n## Next\n| 2 | a | b | c | d | e |\n";
    let rows = ledger_rows(ledger);
    assert_eq!(rows.len(), 1, "only the ledger's rows");
    assert_eq!(named_tests(rows[0].tests), [("tests/a", "kept")]);
    assert_eq!(rows[0].status, "contradicted");
    let source = "/// doc\n#[test]\nfn kept() {}\n\nfn helper() {}\n";
    assert!(defines_test(source, "kept"));
    assert!(!defines_test(source, "helper"), "not a test");
    assert!(!defines_test(source, "renamed"));
}
