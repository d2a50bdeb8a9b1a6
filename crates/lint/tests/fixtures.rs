//! Fixture-driven rule tests: every rule has a passing and a violating case
//! under `tests/fixtures/<rule>/{pass,fail}/`, parsed under the *virtual* path
//! declared on each fixture's first line (`// lint-fixture: <path>`), so a
//! snippet can impersonate any workspace location without living there.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use triad_lint::{run_all, Diagnostic, SourceFile, RULES};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Loads every `.rs` file in a fixture case directory as a [`SourceFile`]
/// under its declared virtual path.
fn load_case(rule: &str, case: &str) -> Vec<SourceFile> {
    let dir = fixtures_root().join(rule).join(case);
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("fixture dir {} missing: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "no fixture files in {}", dir.display());
    entries
        .iter()
        .map(|path| {
            let src = std::fs::read_to_string(path).unwrap();
            SourceFile::parse(&virtual_path(path, &src), &src)
        })
        .collect()
}

/// The `// lint-fixture: <path>` header of a fixture file.
fn virtual_path(path: &Path, src: &str) -> String {
    let header = src.lines().next().unwrap_or("");
    let declared = header
        .strip_prefix("// lint-fixture:")
        .unwrap_or_else(|| panic!("{} must start with `// lint-fixture: <path>`", path.display()));
    declared.trim().to_string()
}

fn diagnostics(rule: &str, case: &str) -> Vec<Diagnostic> {
    run_all(&load_case(rule, case))
}

/// The pass fixture must be completely clean (not merely clean for the rule
/// under test): fixtures double as documentation of idiomatic code, so noise
/// from a *different* rule means the fixture is wrong.
fn assert_pass_clean(rule: &str) {
    let diags = diagnostics(rule, "pass");
    assert!(diags.is_empty(), "pass fixture for `{rule}` is not clean: {diags:?}");
}

/// The fail fixture must produce at least one diagnostic *for the rule under
/// test*, each carrying the file path and a non-zero line.
fn assert_fail_flagged(rule: &str) {
    let diags = diagnostics(rule, "fail");
    let hits: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == rule).collect();
    assert!(
        !hits.is_empty(),
        "fail fixture for `{rule}` produced no `{rule}` diagnostic: {diags:?}"
    );
    for d in &hits {
        assert!(!d.path.is_empty() && d.line > 0, "diagnostic lacks a location: {d:?}");
    }
}

#[test]
fn every_documented_rule_has_fixtures() {
    for rule in RULES {
        let dir = fixtures_root().join(rule.id);
        assert!(dir.is_dir(), "rule `{}` has no fixture directory", rule.id);
    }
}

macro_rules! rule_fixture_tests {
    ($($name:ident => $rule:literal),* $(,)?) => {
        $(
            mod $name {
                #[test]
                fn pass_case_is_clean() {
                    super::assert_pass_clean($rule);
                }
                #[test]
                fn fail_case_is_flagged() {
                    super::assert_fail_flagged($rule);
                }
            }
        )*
    };
}

rule_fixture_tests! {
    append_stage_no_fsync => "append-stage-no-fsync",
    lock_order => "lock-order",
    block_cache_checksum => "block-cache-checksum",
    checkpoint_fs_region => "checkpoint-fs-region",
    failpoint_registry => "failpoint-registry",
}

// ---------------------------------------------------------------------------
// Specific diagnostics worth pinning beyond "some diagnostic fired".
// ---------------------------------------------------------------------------

#[test]
fn lock_order_names_both_locks_and_ranks() {
    let diags = diagnostics("lock-order", "fail");
    let d = diags.iter().find(|d| d.rule == "lock-order").unwrap();
    assert!(d.message.contains("`wal` (rank 10)"), "message: {}", d.message);
    assert!(d.message.contains("`mem` (rank 40)"), "message: {}", d.message);
}

#[test]
fn failpoint_registry_reports_both_directions() {
    let diags = diagnostics("failpoint-registry", "fail");
    let msgs: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "failpoint-registry")
        .map(|d| d.message.as_str())
        .collect();
    assert!(msgs.iter().any(|m| m.contains("flush.orphan_point")), "orphan missing: {msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("flush.ghost_point")), "ghost missing: {msgs:?}");
}

#[test]
fn test_modules_are_exempt_from_engine_rules() {
    // prefetch.rs has a second `.get_or_load(` inside #[cfg(test)]; only the
    // non-test one may be flagged.
    let diags = diagnostics("block-cache-checksum", "fail");
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "block-cache-checksum" && d.path.ends_with("prefetch.rs"))
        .collect();
    assert_eq!(hits.len(), 1, "the #[cfg(test)] get_or_load must be exempt: {hits:?}");
}

#[test]
fn append_stage_without_markers_is_flagged() {
    // Deleting the markers must not silently switch the fsync ban off.
    let file = SourceFile::parse(
        "crates/core/src/commit.rs",
        "fn append_stage(&self) {\n    handle.sync();\n}\n",
    );
    let diags = run_all(&[file]);
    assert!(
        diags.iter().any(|d| d.rule == "append-stage-no-fsync"
            && d.message.contains("PIPELINE-APPEND-STAGE-BEGIN")),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Whole-workspace and binary-level checks.
// ---------------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

#[test]
fn workspace_is_lint_clean() {
    let diags = triad_lint::lint_root(&workspace_root()).unwrap();
    assert!(diags.is_empty(), "the workspace must stay lint-clean: {diags:?}");
}

#[test]
fn deny_exits_zero_on_the_clean_workspace() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_triad-lint"))
        .args(["--root", workspace_root().to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn deny_exits_nonzero_on_every_violating_fixture() {
    // Materialize each fail case as a real tree at its virtual paths, then run
    // the binary the way CI does.
    for rule in RULES {
        let dir = fixtures_root().join(rule.id).join("fail");
        let stage = std::env::temp_dir().join(format!(
            "triad-lint-fixture-{}-{}",
            rule.id,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&stage);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if !path.extension().is_some_and(|e| e == "rs") {
                continue;
            }
            let src = std::fs::read_to_string(&path).unwrap();
            let dest = stage.join(virtual_path(&path, &src));
            std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
            std::fs::write(&dest, &src).unwrap();
        }
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_triad-lint"))
            .args(["--root", stage.to_str().unwrap()])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!out.status.success(), "must fail on the {} fixture; stdout: {stdout}", rule.id);
        assert!(stdout.contains(rule.id), "output must name `{}`: {stdout}", rule.id);
        let _ = std::fs::remove_dir_all(&stage);
    }
}

#[test]
fn list_rules_names_every_rule() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_triad-lint"))
        .arg("--list-rules")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in RULES {
        assert!(stdout.contains(rule.id), "--list-rules must name `{}`: {stdout}", rule.id);
    }
}

/// The rule ids docs/ARCHITECTURE.md attributes to triad-lint: every table
/// row whose last cell reads "triad-lint `<id>`".
fn documented_rule_ids() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(workspace_root().join("docs/ARCHITECTURE.md")).unwrap();
    doc.lines()
        .filter(|line| line.starts_with('|'))
        .filter_map(|row| row.trim_end().trim_end_matches('|').rsplit('|').next())
        .filter_map(|cell| cell.trim().strip_prefix("triad-lint `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn documented_rules_match_the_rule_set() {
    let documented = documented_rule_ids();
    let enforced: BTreeSet<String> = RULES.iter().map(|rule| rule.id.to_string()).collect();
    assert_eq!(
        documented, enforced,
        "docs/ARCHITECTURE.md's \"Enforced invariants\" table must name exactly the rules \
         triad-lint enforces"
    );
}
