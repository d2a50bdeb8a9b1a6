//! Shared helpers for the engine integration tests.
//!
//! Each integration-test binary uses a different subset of these helpers, so the
//! unused-code lint is silenced for the module as a whole.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use triad_core::{Db, Options};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// Creates a fresh, empty directory for one test database.
pub fn temp_dir(name: &str) -> PathBuf {
    let unique = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("triad-core-test-{name}-{}-{unique}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// [`Options::small_for_tests`] at the shard count `TRIAD_SHARDS` names, one
/// shard when it is unset. CI reruns the sharded suites under `TRIAD_SHARDS=4`
/// through this helper; the engine itself reads no environment.
pub fn small_options() -> Options {
    // The one environment read in the engine's tests: the shard-count override
    // is a property of the test run, not of the library.
    #[allow(clippy::disallowed_methods)]
    let shards = std::env::var("TRIAD_SHARDS").ok().and_then(|count| count.trim().parse().ok());
    let mut options = Options::small_for_tests();
    if let Some(count) = shards {
        options.shards = triad_core::ShardConfig::with_count(count);
    }
    options
}

/// Opens a database with [`small_options`] in a fresh directory.
pub fn open_small(name: &str, mutate: impl FnOnce(&mut Options)) -> (Db, PathBuf) {
    let dir = temp_dir(name);
    let mut options = small_options();
    mutate(&mut options);
    let db = Db::open(&dir, options).unwrap();
    (db, dir)
}

/// A deterministic value for `(key, version)` used to verify read-your-writes.
pub fn value_for(key: u64, version: u64) -> Vec<u8> {
    format!("value-{key}-{version}-{}", "x".repeat(100)).into_bytes()
}

/// Pins a test database to a single shard, regardless of the `TRIAD_SHARDS`
/// override [`small_options`] applies. For tests whose assertions are
/// inherently single-shard: exact file counts, probe arithmetic, seqno density.
pub fn single_shard(options: &mut Options) {
    options.shards = triad_core::ShardConfig::with_count(1);
}

/// Every file name currently present in the database directory, relative to
/// its root. Files inside `shard-NNN/` subdirectories (the sharded layout)
/// are listed with their `shard-NNN/` prefix, matching
/// [`Db::expected_live_files`].
pub fn disk_files(dir: &std::path::Path) -> std::collections::BTreeSet<String> {
    let mut names = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.file_type().unwrap().is_dir() && name.starts_with("shard-") {
            for nested in std::fs::read_dir(entry.path()).unwrap() {
                let nested = nested.unwrap().file_name().to_string_lossy().into_owned();
                names.insert(format!("{name}/{nested}"));
            }
        } else {
            names.insert(name);
        }
    }
    names
}

/// Asserts that, after a garbage-collection pass, the files on disk are exactly
/// the set the live version (plus WAL, manifest and `CURRENT`) accounts for — no
/// leaked obsolete files, no prematurely deleted live ones.
///
/// Exact once background work has settled (after `wait_for_compactions`, or a
/// flush that triggers no compaction): the worker drops its version before it
/// installs the next, so nothing it holds keeps a retired file alive.
pub fn assert_disk_matches_live_set(db: &Db, dir: &std::path::Path) {
    db.collect_garbage();
    assert_eq!(
        disk_files(dir),
        db.expected_live_files(),
        "on-disk files diverge from the live version's file set"
    );
}

/// A fixed-width key.
pub fn key_for(key: u64) -> Vec<u8> {
    format!("key-{key:08}").into_bytes()
}
