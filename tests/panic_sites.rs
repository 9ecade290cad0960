//! Gate on the panic-site audit (DESIGN §4i): the number of non-test
//! `.unwrap()`, `.expect(`, `panic!(` and `unreachable!(` sites in each
//! crate's `src/`, counted before the file's first `#[cfg(test)]` and
//! skipping comment lines, must equal the table below. A new site fails
//! the gate until its row in DESIGN §4i says why it cannot fire and the
//! table moves with it; a removed one fails it until the table records the
//! win.

use std::fs;
use std::path::{Path, PathBuf};

/// Non-test panic sites per crate, as audited in DESIGN §4i.
const AUDITED: &[(&str, usize)] = &[
    ("attacks", 1),
    ("bench", 10),
    ("controller", 4),
    ("core", 3),
    ("dataplane", 0),
    ("netsim", 20),
    ("primitives", 2),
    ("systems", 64),
    ("telemetry", 2),
    ("wire", 1),
    ("workloads", 0),
];

const PATTERNS: [&str; 4] = [".unwrap()", ".expect(", "panic!(", "unreachable!("];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Panic sites in one file's non-test code.
fn sites(source: &str) -> usize {
    source
        .lines()
        .map(str::trim_start)
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.starts_with("//"))
        .map(|line| {
            PATTERNS
                .iter()
                .map(|p| line.matches(p).count())
                .sum::<usize>()
        })
        .sum()
}

#[test]
fn panic_sites_match_the_audit() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut names: Vec<String> = fs::read_dir(&crates)
        .expect("crates/")
        .map(|entry| entry.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| crates.join(name).join("src").is_dir())
        .collect();
    names.sort();
    let mut counted = Vec::new();
    for name in &names {
        let mut files = Vec::new();
        rust_files(&crates.join(name).join("src"), &mut files);
        let n = files
            .iter()
            .map(|f| sites(&fs::read_to_string(f).expect("readable source")))
            .sum::<usize>();
        counted.push((name.as_str(), n));
    }
    assert_eq!(
        counted, AUDITED,
        "non-test panic sites per crate moved; audit the new site in DESIGN §4i \
         (or record the removal) and update this table"
    );
}

#[test]
fn comments_and_test_code_do_not_count() {
    let src = "fn f() { x.unwrap(); }\n\
               // y.unwrap();\n\
               /// z.expect(\"doc\")\n\
               fn g() { panic!(\"a\"); unreachable!(); }\n\
               #[cfg(test)]\n\
               fn t() { w.unwrap(); }\n";
    assert_eq!(sites(src), 3);
}
