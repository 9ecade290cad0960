//! Gate on the protocol core's settings (DESIGN §4i, "Config surface"):
//! `ControllerConfig`, `AgentConfig`, `ChassisConfig` and `DefenceConfig`
//! are destructured below with no `..`, so a new field does not compile
//! until it is named here, and the test then fails until DESIGN's table
//! has a row for it naming the callers that set it. A setting with one
//! value in use is a constant where it is read, not a field.
//!
//! Nor is a setting read from the environment: no source file of the
//! workspace or its shims reads an environment variable.

use p4auth::controller::{ControllerConfig, DefenceConfig};
use p4auth::core::agent::AgentConfig;
use p4auth::dataplane::ChassisConfig;
use p4auth::primitives::Key64;
use p4auth::wire::ids::SwitchId;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Destructures `$value` as `$ty` naming exactly `$field`s, and returns
/// them as `"Type::field"`.
macro_rules! fields {
    ($ty:ident { $($field:ident),* $(,)? } = $value:expr) => {{
        let $ty { $($field: _),* } = $value;
        vec![$(concat!(stringify!($ty), "::", stringify!($field))),*]
    }};
}

const STRUCTS: [&str; 4] = [
    "ControllerConfig",
    "AgentConfig",
    "ChassisConfig",
    "DefenceConfig",
];

fn config_fields() -> Vec<&'static str> {
    let id = SwitchId::new(1);
    [
        fields!(
            ControllerConfig {
                auth_enabled,
                rng_seed
            } = ControllerConfig::default()
        ),
        fields!(
            AgentConfig {
                switch_id,
                num_ports,
                k_seed,
                profile,
                auth_enabled,
                register_map,
                rng_seed,
            } = AgentConfig::new(id, 2, Key64::new(1))
        ),
        fields!(
            ChassisConfig {
                switch_id,
                profile,
                num_ports
            } = ChassisConfig::tofino(id, 2)
        ),
        fields!(
            DefenceConfig {
                window_ns,
                reject_threshold,
                escalation_window_ns,
            } = DefenceConfig::default()
        ),
    ]
    .concat()
}

/// The `Type::field` first cells of DESIGN's table rows that name one of
/// the four structs.
fn design_rows() -> BTreeSet<String> {
    let design = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("DESIGN.md"))
        .expect("DESIGN.md");
    design
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("| `"))
        .filter_map(|line| line.split_once("` |"))
        .map(|(cell, _)| cell)
        .filter(|cell| {
            cell.split_once("::")
                .is_some_and(|(ty, _)| STRUCTS.contains(&ty))
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn the_fifteen_config_fields_each_have_a_design_row() {
    let fields: BTreeSet<String> = config_fields().into_iter().map(String::from).collect();
    assert_eq!(fields.len(), 15, "{fields:?}");
    assert_eq!(
        design_rows(),
        fields,
        "DESIGN §4i's config-surface table and the config structs disagree"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_source_reads_an_environment_variable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut src_dirs = vec![root.join("src")];
    for parent in ["crates", "shims"] {
        for entry in fs::read_dir(root.join(parent)).expect(parent) {
            src_dirs.push(entry.expect("directory entry").path().join("src"));
        }
    }
    let mut files = Vec::new();
    for dir in src_dirs.iter().filter(|dir| dir.is_dir()) {
        rust_files(dir, &mut files);
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    let reads: Vec<String> = files
        .iter()
        .flat_map(|file| {
            let source = fs::read_to_string(file).expect("readable source");
            source
                .lines()
                .enumerate()
                .filter(|(_, line)| line.contains("env::var"))
                .map(|(n, line)| format!("{}:{}: {}", file.display(), n + 1, line.trim()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        reads.is_empty(),
        "a setting read from the environment; make it a flag or a constant:\n{}",
        reads.join("\n")
    );
}
