//! docs/ARCHITECTURE.md's "Enforced invariants" table names what enforces
//! each invariant: a type, rustc, clippy, the lock-rank checker or a test.
//! This test keeps those citations honest: every file a row cites exists, and
//! every item or test it cites by path is still declared in the workspace.

use std::path::{Path, PathBuf};

/// The enforcer kinds a row's last cell starts with.
const ENFORCERS: &[&str] = &["rustc:", "clippy:", "rank checker:", "test:", "tests:", "type:"];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Whether `source` declares an item (function, type, trait or module)
/// called `name`.
fn declares(source: &str, name: &str) -> bool {
    ["fn", "struct", "enum", "trait", "mod"].iter().any(|keyword| {
        let needle = format!("{keyword} {name}");
        source.match_indices(&needle).any(|(at, _)| {
            !source[at + needle.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
        })
    })
}

#[test]
fn documented_enforcers_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("docs/ARCHITECTURE.md")).unwrap();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests"] {
        rust_sources(&root.join(dir), &mut files);
    }
    let source: String = files.iter().map(|path| std::fs::read_to_string(path).unwrap()).collect();

    let mut rows = 0;
    for row in doc.lines().filter(|line| line.starts_with('|')) {
        let enforcer = row.trim_end().trim_end_matches('|').rsplit('|').next().unwrap().trim();
        if !ENFORCERS.iter().any(|kind| enforcer.starts_with(kind)) {
            continue;
        }
        rows += 1;
        for cited in enforcer.split('`').skip(1).step_by(2) {
            if cited.contains('/') {
                assert!(root.join(cited).exists(), "`{cited}` is cited as an enforcer but missing");
            } else if cited.contains("::") && !cited.starts_with("std::") {
                let item = cited.rsplit("::").next().unwrap();
                assert!(
                    declares(&source, item),
                    "`{cited}` is cited as an enforcer but undeclared"
                );
            }
        }
    }
    assert!(rows >= 10, "found {rows} enforced-invariant rows; did the table move?");
}

/// A resolved block is a `VerifiedBlock` only `cl_table.rs` builds, after
/// every record's CRC and index→log key check: rustc keeps the tuple
/// constructor private to `format.rs`, and this test keeps
/// `VerifiedBlock::resolved`, visible crate-wide, to its one caller.
#[test]
fn resolved_blocks_are_built_only_by_the_cl_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    let callers: Vec<PathBuf> = files
        .into_iter()
        .filter(|path| std::fs::read_to_string(path).unwrap().contains("VerifiedBlock::resolved("))
        .collect();
    assert_eq!(callers, [root.join("crates/sstable/src/cl_table.rs")]);
}

/// A get's row is a `VerifiedBlock` built only from what a verified read
/// found: an entry of a CRC-checked data block (`reader.rs`), or a CL index
/// entry with the value of a record that passed its CRC and index→log key
/// checks (`cl_table.rs`). rustc keeps the tuple constructor private to
/// `format.rs`, and this test keeps `VerifiedBlock::row`, visible
/// crate-wide, to those two files.
#[test]
fn rows_are_built_only_by_verified_reads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), &mut files);
    let mut callers: Vec<PathBuf> = files
        .into_iter()
        .filter(|path| std::fs::read_to_string(path).unwrap().contains("VerifiedBlock::row("))
        .collect();
    callers.sort();
    let expected = ["crates/sstable/src/cl_table.rs", "crates/sstable/src/reader.rs"];
    assert_eq!(callers, expected.map(|path| root.join(path)));
}
