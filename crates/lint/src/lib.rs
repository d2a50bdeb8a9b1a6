//! `triad-lint`: the workspace's in-tree invariant checker.
//!
//! The engine's correctness rests on invariants that used to live in prose
//! and in fragile shell greps in CI: no fsync under the commit append
//! lock, unbounded (`u64::MAX`) probes on the hot read path, no resurrection
//! of the stale-version retry hack, a global lock acquisition order. This
//! crate turns each of those into a versioned rule with file:line
//! diagnostics, driven by a token-level Rust scanner ([`scanner`]) — no
//! external dependencies, per the workspace's vendored-only constraint.
//!
//! Run it as `cargo run -p triad-lint` (add `--deny` to fail on violations,
//! `--json` for machine-readable output, `--list-rules` to enumerate the rule
//! set). CI runs the deny mode before the test suite; the rules are
//! documented in docs/ARCHITECTURE.md ("Enforced invariants").
//!
//! The static pass is paired with a dynamic backstop: the ranked lock
//! wrappers in `triad_common::lockrank` assert the same acquisition order at
//! runtime in debug builds, covering guard lifetimes the lexical model
//! cannot see.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod rules;
pub mod scanner;
pub mod walker;

pub use diag::{to_json, Diagnostic};
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
