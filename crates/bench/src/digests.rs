//! Pinned artefacts: one line per deterministic output of `repro`, so a
//! change that moves a sim-time number shows up as a moved line of the
//! checked-in `ARTEFACTS.txt` instead of passing unnoticed.
//!
//! ```sh
//! cargo run --release -p p4auth-bench --bin repro -- digests                         # print
//! cargo run --release -p p4auth-bench --bin repro -- digests --check ARTEFACTS.txt   # gate
//! cargo run --release -p p4auth-bench --bin repro -- digests --bless ARTEFACTS.txt   # rewrite
//! ```
//!
//! A line is `<name> <byte length> <digest>`, the digest being SipHash-2-4
//! (64-bit output) under the fixed public key [`KEY`]: a checksum that
//! names what moved, not a secret. The artefacts are the stdout of the
//! eleven paper printers, the `--out` JSON (and `.bin`, where one exists)
//! of `metrics`, `timeline --short`, `trace --short`, `replicas` and
//! `scenarios --short`, and the `"fingerprint"` arrays of `users --short`
//! (its other fields are wall-clock). Each artefact comes from a child
//! `repro` process, so a printer's stdout is captured exactly as a reader
//! sees it.

use std::path::Path;
use std::process::Command;

/// The SipHash key: public and fixed, so every build computes the same
/// digest for the same bytes.
pub const KEY: (u64, u64) = (0x7034_6175_7468_2d61, 0x7274_6566_6163_7473);

/// The paper printers whose stdout is an artefact.
const PRINTERS: [&str; 11] = [
    "table1", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "table2", "table3", "fct",
    "ablation",
];

/// The reports whose `--out` files are artefacts, with their arguments.
const REPORTS: [(&str, &[&str]); 5] = [
    ("metrics", &[]),
    ("timeline", &["--short"]),
    ("trace", &["--short"]),
    ("replicas", &[]),
    ("scenarios", &["--short"]),
];

/// SipHash-2-4 of `bytes` under [`KEY`].
pub fn digest(bytes: &[u8]) -> u64 {
    #[allow(deprecated)] // `SipHasher` is the one keyed SipHash-2-4 in std.
    let mut h = std::hash::SipHasher::new_with_keys(KEY.0, KEY.1);
    std::hash::Hasher::write(&mut h, bytes);
    std::hash::Hasher::finish(&h)
}

/// One artefact's line: name, byte length, digest.
pub fn line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {} {:016x}", bytes.len(), digest(bytes))
}

/// The `"fingerprint": [...]` arrays of a users report, one a line.
pub fn fingerprints(json: &str) -> String {
    let mut out = String::new();
    for (at, _) in json.match_indices("\"fingerprint\": [") {
        if let Some(len) = json[at..].find(']') {
            out.push_str(&json[at..=at + len]);
            out.push('\n');
        }
    }
    out
}

/// The names whose lines differ between `pinned` and `current` (present
/// in one only, or with another length or digest), in `current`'s order
/// and then `pinned`'s.
pub fn moved(pinned: &str, current: &str) -> Vec<String> {
    let name = |l: &str| l.split_whitespace().next().unwrap_or("").to_string();
    let mut names: Vec<String> = current
        .lines()
        .filter(|l| !pinned.lines().any(|p| p == *l))
        .map(name)
        .collect();
    for l in pinned.lines() {
        let n = name(l);
        if !l.trim().is_empty() && !current.lines().any(|c| name(c) == n) {
            names.push(n);
        }
    }
    names.dedup();
    names
}

/// Runs `repro` with `args`; its stdout.
fn run(exe: &Path, args: &[&str]) -> Result<Vec<u8>, String> {
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "repro {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(out.stdout)
}

/// Produces every artefact with `exe` (the `repro` binary), writing the
/// `--out` files under `dir`; returns the lines, one per artefact.
pub fn collect(exe: &Path, dir: &Path) -> Result<String, String> {
    let read = |path: &Path| {
        std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let mut lines = String::new();
    for name in PRINTERS {
        lines += &line(&format!("{name}.stdout"), &run(exe, &[name])?);
        lines.push('\n');
    }
    for (name, flags) in REPORTS {
        let json = dir.join(format!("{name}.json"));
        let path = json.to_string_lossy().into_owned();
        let mut args = vec![name];
        args.extend(flags);
        args.extend(["--out", &path]);
        run(exe, &args)?;
        lines += &line(&format!("{name}.json"), &read(&json)?);
        lines.push('\n');
        let bin = dir.join(format!("{name}.json.bin"));
        if bin.exists() {
            lines += &line(&format!("{name}.json.bin"), &read(&bin)?);
            lines.push('\n');
        }
    }
    let users = dir.join("users.json");
    let path = users.to_string_lossy().into_owned();
    run(exe, &["users", "--short", "--out", &path])?;
    let users = String::from_utf8_lossy(&read(&users)?).into_owned();
    lines += &line("users.fingerprints", fingerprints(&users).as_bytes());
    lines.push('\n');
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(artefacts: &[(&str, &[u8])]) -> String {
        artefacts
            .iter()
            .map(|(name, bytes)| line(name, bytes) + "\n")
            .collect()
    }

    #[test]
    fn the_digest_is_keyed_siphash_and_stable() {
        assert_eq!(digest(b""), digest(b""));
        assert_ne!(digest(b"a"), digest(b"b"));
        assert_eq!(line("x", b"abc").split(' ').nth(1), Some("3"));
        // SipHash-2-4 under the reference key 00..0f, empty input: the
        // first test vector of the SipHash paper (Aumasson & Bernstein).
        #[allow(deprecated)]
        let mut h =
            std::hash::SipHasher::new_with_keys(0x0706_0504_0302_0100, 0x0f0e_0d0c_0b0a_0908);
        std::hash::Hasher::write(&mut h, b"");
        assert_eq!(std::hash::Hasher::finish(&h), 0x726f_db47_dd0e_0e31);
    }

    #[test]
    fn check_names_the_artefact_whose_byte_flipped() {
        let json = br#"{"a": 1}"#.to_vec();
        let out = b"table\n".to_vec();
        let pinned = lines(&[("fig16.stdout", &out), ("metrics.json", &json)]);
        assert!(moved(&pinned, &pinned).is_empty());
        let mut flipped = json.clone();
        flipped[3] ^= 1;
        let current = lines(&[("fig16.stdout", &out), ("metrics.json", &flipped)]);
        assert_eq!(moved(&pinned, &current), ["metrics.json"]);
    }

    #[test]
    fn check_names_missing_and_new_artefacts() {
        let pinned = lines(&[("a", b"1"), ("b", b"2")]);
        let current = lines(&[("a", b"1"), ("c", b"3")]);
        assert_eq!(moved(&pinned, &current), ["c", "b"]);
    }

    #[test]
    fn fingerprints_keeps_only_the_deterministic_arrays() {
        let json = r#"{"runs": [{"users": 1, "fingerprint": [1, 2], "ns_per_user": 3.5},
            {"fingerprint": [3, 4], "peak_alloc_bytes": 9}]}"#;
        assert_eq!(
            fingerprints(json),
            "\"fingerprint\": [1, 2]\n\"fingerprint\": [3, 4]\n"
        );
    }
}
