//! `triad-lint`: the workspace's in-tree invariant checker.
//!
//! Most of the workspace's source invariants are checked by rustc
//! (`unsafe_code = "forbid"`), clippy (`crates/clippy.toml`), the debug
//! lock-rank checker in `triad_common::lockrank`, or a test. This crate
//! checks the few that none of those can see: no fsync inside the commit
//! append stage, the rank order of the std-sync locks the dynamic checker
//! misses, checksum-verified block-cache inserts, checkpoint filesystem
//! mutation confined to one region, and failpoints that tests and engine
//! agree on. Each is a versioned rule with file:line diagnostics, driven by
//! a token-level Rust scanner ([`scanner`]) — no external dependencies, per
//! the workspace's vendored-only constraint.
//!
//! Run it as `cargo run -p triad-lint`; it exits non-zero on any violation
//! (`--list-rules` enumerates the rule set). The rules are documented in
//! docs/ARCHITECTURE.md ("Enforced invariants").
//!
//! The static `lock-order` pass is paired with a dynamic backstop: the ranked
//! lock wrappers in `triad_common::lockrank` assert the same acquisition order
//! at runtime in debug builds, covering guard lifetimes the lexical model
//! cannot see.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod rules;
pub mod scanner;
pub mod walker;

pub use diag::Diagnostic;
pub use rules::{run_all, Rule, RULES};
pub use scanner::SourceFile;

use std::path::Path;

/// Lints every `.rs` file under `root` (the workspace checkout), returning
/// diagnostics sorted by location.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let sources = walker::collect_sources(root)?;
    let files: Vec<SourceFile> =
        sources.iter().map(|(path, text)| SourceFile::parse(path, text)).collect();
    Ok(run_all(&files))
}
