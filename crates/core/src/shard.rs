//! Keyspace sharding: hash routing, the on-disk shard layout and the
//! per-shard engine handle.
//!
//! A sharded database is `Options::shards.count` fully independent LSM
//! engines behind one [`crate::Db`] facade. Each shard owns its own WAL,
//! commit pipeline, memtable stack, version set, GC queue
//! and background worker, rooted in a `shard-NNN/` subdirectory with its
//! own manifest. Point operations hash to exactly one shard and touch no
//! cross-shard state on the hot path; only shard-spanning snapshots (and
//! the scans built on them) coordinate across shards, via the router gate
//! (rank `ROUTER`, below `WAL`).
//!
//! # Layout
//!
//! * `count == 1` — the single shard lives directly in the database root,
//!   byte-identical to the unsharded layout of earlier versions.
//! * `count > 1` — the root holds a `SHARDS` marker file recording the
//!   count, plus one `shard-000/` … `shard-NNN/` subdirectory per shard.
//!
//! The persisted count wins on reopen: a database created with four shards
//! reopens with four shards regardless of `Options::shards`. Re-sharding an
//! existing database is not supported; opening a root-layout (unsharded)
//! database with `count > 1` is an [`Error::InvalidArgument`].

use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use triad_common::{Error, Result};

use crate::db::DbInner;

/// Name of the root-level marker file persisting the shard count.
pub(crate) const SHARDS_MARKER: &str = "SHARDS";

/// Upper bound on the shard count, mirrored by `Options::validate`.
const MAX_SHARDS: usize = 256;

/// Deterministic key → shard routing.
///
/// Routing is FNV-1a over the user key modulo the shard count, so a key's
/// shard is a pure function of `(key, count)` — stable across restarts and
/// across processes. `count == 1` short-circuits to shard 0 without
/// hashing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardRouter {
    count: usize,
}

impl ShardRouter {
    pub(crate) fn new(count: usize) -> ShardRouter {
        debug_assert!(count >= 1);
        ShardRouter { count }
    }

    /// Index of the shard owning `key`.
    pub(crate) fn route(&self, key: &[u8]) -> usize {
        if self.count == 1 {
            return 0;
        }
        (fnv1a(key) % self.count as u64) as usize
    }
}

/// 64-bit FNV-1a: cheap, allocation-free and stable across platforms.
fn fnv1a(key: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in key {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Subdirectory name for shard `index` (`shard-000`, `shard-001`, …).
pub(crate) fn dir_name(index: usize) -> String {
    format!("shard-{index:03}")
}

/// Reads the persisted shard count, if the root carries a `SHARDS` marker.
pub(crate) fn read_marker(root: &Path) -> Result<Option<usize>> {
    let marker = root.join(SHARDS_MARKER);
    let raw = match std::fs::read_to_string(&marker) {
        Ok(raw) => raw,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(Error::io(format!("read {}", marker.display()), err)),
    };
    let count: usize = raw
        .trim()
        .parse()
        .map_err(|_| Error::corruption_at(format!("unparsable SHARDS marker {raw:?}"), &marker))?;
    if !(2..=MAX_SHARDS).contains(&count) {
        return Err(Error::corruption_at(
            format!("SHARDS marker records implausible shard count {count}"),
            &marker,
        ));
    }
    Ok(Some(count))
}

/// Persists the shard count marker (only ever written for `count > 1`).
pub(crate) fn write_marker(root: &Path, count: usize) -> Result<()> {
    debug_assert!(count > 1);
    let marker = root.join(SHARDS_MARKER);
    std::fs::write(&marker, format!("{count}\n"))
        .map_err(|err| Error::io(format!("write {}", marker.display()), err))?;
    let file = std::fs::File::open(&marker)
        .map_err(|err| Error::io(format!("open {}", marker.display()), err))?;
    file.sync_all().map_err(|err| Error::io(format!("sync {}", marker.display()), err))?;
    Ok(())
}

/// Resolves the effective shard count for a database rooted at `root`.
///
/// A persisted `SHARDS` marker always wins over the requested count. Without
/// a marker, shard subdirectories mean the marker was lost (corruption), a
/// root-level `CURRENT` means an unsharded database that cannot be reopened
/// with `requested > 1`, and a fresh directory adopts `requested`.
pub(crate) fn resolve_count(root: &Path, requested: usize) -> Result<usize> {
    if let Some(persisted) = read_marker(root)? {
        return Ok(persisted);
    }
    if root.join(dir_name(0)).exists() {
        return Err(Error::corruption_at(
            "shard directories present but the SHARDS marker is missing",
            root,
        ));
    }
    if requested > 1 && root.join("CURRENT").exists() {
        return Err(Error::InvalidArgument(format!(
            "database at {} was created unsharded; it cannot be reopened with shards.count = {requested}",
            root.display()
        )));
    }
    Ok(requested)
}

/// One independent LSM engine plus its background worker thread.
///
/// The engine itself ([`DbInner`]) is exactly the pre-sharding database;
/// `Shard` only pairs it with the worker handle so the [`crate::Db`] facade
/// can open and close each shard independently. Construction and teardown
/// (`Shard::open` / `Shard::close`) live in `db.rs`, next to the `DbInner`
/// internals they manipulate.
pub(crate) struct Shard {
    pub(crate) inner: Arc<DbInner>,
    pub(crate) worker: Mutex<Option<JoinHandle<()>>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempRoot(std::path::PathBuf);

    impl TempRoot {
        fn new(name: &str) -> TempRoot {
            let path = std::env::temp_dir().join(format!(
                "triad-shard-{name}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).expect("create temp root");
            TempRoot(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let router = ShardRouter::new(4);
        for i in 0..1000u32 {
            let key = format!("key-{i:08}");
            let first = router.route(key.as_bytes());
            assert!(first < 4);
            assert_eq!(first, router.route(key.as_bytes()));
        }
    }

    #[test]
    fn single_shard_routing_never_hashes_away_from_zero() {
        let router = ShardRouter::new(1);
        assert_eq!(router.route(b"anything"), 0);
        assert_eq!(router.route(b""), 0);
    }

    #[test]
    fn routing_spreads_keys_across_shards() {
        let router = ShardRouter::new(4);
        let mut hits = [0usize; 4];
        for i in 0..4000u32 {
            hits[router.route(format!("user{i:06}").as_bytes())] += 1;
        }
        // FNV-1a over distinct keys should land within 2x of uniform.
        for (shard, &count) in hits.iter().enumerate() {
            assert!(count > 500 && count < 2000, "shard {shard} got {count} of 4000 keys");
        }
    }

    #[test]
    fn dir_names_are_zero_padded() {
        assert_eq!(dir_name(0), "shard-000");
        assert_eq!(dir_name(17), "shard-017");
        assert_eq!(dir_name(255), "shard-255");
    }

    #[test]
    fn marker_round_trips() {
        let dir = TempRoot::new("marker-round-trips");
        assert_eq!(read_marker(dir.path()).expect("read"), None);
        write_marker(dir.path(), 8).expect("write");
        assert_eq!(read_marker(dir.path()).expect("read"), Some(8));
        assert_eq!(resolve_count(dir.path(), 1).expect("resolve"), 8);
    }

    #[test]
    fn garbage_markers_are_corruption() {
        let dir = TempRoot::new("garbage-markers");
        std::fs::write(dir.path().join(SHARDS_MARKER), "not-a-count\n").expect("write");
        assert!(matches!(read_marker(dir.path()), Err(Error::Corruption { .. })));
        std::fs::write(dir.path().join(SHARDS_MARKER), "0\n").expect("write");
        assert!(matches!(read_marker(dir.path()), Err(Error::Corruption { .. })));
    }

    #[test]
    fn unsharded_databases_refuse_a_sharded_reopen() {
        let dir = TempRoot::new("unsharded-reopen");
        std::fs::write(dir.path().join("CURRENT"), "MANIFEST-000001\n").expect("write");
        assert!(matches!(resolve_count(dir.path(), 4), Err(Error::InvalidArgument(_))));
        assert_eq!(resolve_count(dir.path(), 1).expect("resolve"), 1);
    }

    #[test]
    fn orphaned_shard_directories_are_corruption() {
        let dir = TempRoot::new("orphaned-dirs");
        std::fs::create_dir(dir.path().join(dir_name(0))).expect("mkdir");
        assert!(matches!(resolve_count(dir.path(), 1), Err(Error::Corruption { .. })));
    }
}
