//! `repro digests --check` end to end: against a copy of the checked-in
//! `ARTEFACTS.txt` with one artefact's digest changed by one bit, the
//! command exits non-zero and names that artefact, and only that one.

use std::process::Command;

#[test]
fn check_names_the_one_artefact_that_moved() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let pinned = std::fs::read_to_string(format!("{root}/ARTEFACTS.txt")).unwrap();
    let line = pinned
        .lines()
        .find(|l| l.starts_with("fig20.stdout "))
        .unwrap();
    let last = line.len() - 1;
    let flipped_digit = if &line[last..] == "0" { "1" } else { "0" };
    let tampered = pinned.replace(line, &format!("{}{flipped_digit}", &line[..last]));
    let dir = std::env::temp_dir().join(format!("p4auth-digests-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ARTEFACTS.txt");
    std::fs::write(&file, tampered).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["digests", "--check"])
        .arg(&file)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a moved artefact passed: {stderr}");
    assert!(
        stderr.contains("1 artefact(s) moved") && stderr.trim_end().ends_with(": fig20.stdout"),
        "{stderr}"
    );
}
