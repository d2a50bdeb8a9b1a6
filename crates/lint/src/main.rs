//! The `triad-lint` command-line interface.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use triad_lint::{lint_root, RULES};

const USAGE: &str = "usage: triad-lint [--root DIR] [--list-rules]

Checks the workspace's source invariants (see docs/ARCHITECTURE.md,
\"Enforced invariants\") and exits non-zero when any is violated.

  --root DIR    workspace root to scan (default: current directory)
  --list-rules  print every rule id with its summary and exit";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut list_rules = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("error: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => list_rules = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    if list_rules {
        for rule in RULES {
            println!("{} — {}", rule.id, rule.summary);
        }
        return ExitCode::SUCCESS;
    }

    let diags = match lint_root(&root) {
        Ok(diags) => diags,
        Err(e) => {
            eprintln!("error: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("triad-lint: {} rules, no violations", RULES.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("triad-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
