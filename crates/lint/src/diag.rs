//! Diagnostics and their human-readable rendering.

use std::fmt;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Id of the rule that fired (stable; listed by `--list-rules`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation (0 for whole-file diagnostics).
    pub line: u32,
    /// What went wrong and why it matters.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}
