//! Property-based tests: the engine behaves like a `BTreeMap` under arbitrary
//! operation sequences, for every TRIAD configuration, including across a restart —
//! and every open MVCC snapshot behaves like the *versioned* reference model
//! (key → list of `(clock, value)`) frozen at the moment the snapshot was taken,
//! for full scans and for range scans with arbitrary bounds alike.
//!
//! The versioned model runs on its own logical clock, one tick per committed
//! write. Engine seqnos cannot play that role: on a sharded database they are
//! per-shard sequence spaces and `Snapshot::seqno()` is a maximum across
//! shards, so neither orders a write on one shard against a snapshot.

use std::collections::BTreeMap;

use proptest::prelude::*;

use triad::{Db, Options, Snapshot, TriadConfig};

/// A single operation in a generated test program.
#[derive(Debug, Clone)]
enum Op {
    Put(u16, Vec<u8>),
    Delete(u16),
    Get(u16),
    Flush,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u16..400, proptest::collection::vec(any::<u8>(), 0..64)).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (0u16..400).prop_map(Op::Delete),
        2 => (0u16..400).prop_map(Op::Get),
        1 => Just(Op::Flush),
    ]
}

fn key_bytes(key: u16) -> Vec<u8> {
    format!("pkey-{key:05}").into_bytes()
}

fn config_strategy() -> impl Strategy<Value = TriadConfig> {
    prop_oneof![
        Just(TriadConfig::baseline()),
        Just(TriadConfig::mem_only()),
        Just(TriadConfig::disk_only()),
        Just(TriadConfig::log_only()),
        Just(TriadConfig::all_enabled()),
    ]
}

/// A block cache of 4 KiB per cache shard (the cache has 8), a few of
/// these options' resolved blocks each: a scan of CL-SSTables evicts its own
/// resolved blocks as it goes.
const SMALL_BLOCK_CACHE: usize = 8 * 4 * 1024;

/// The default block-cache budget, or one small enough that scans evict
/// cached data and resolved blocks midway.
fn block_cache_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(Options::default().block_cache), Just(SMALL_BLOCK_CACHE)]
}

/// Tiny options at the shard count `TRIAD_SHARDS` names (CI runs this suite at
/// 1, 2 and 4 shards), else at the engine's default.
fn tiny_options(triad: TriadConfig, block_cache: usize) -> Options {
    let mut options = Options {
        memtable_size: 8 * 1024,
        max_log_size: 16 * 1024,
        l1_target_size: 64 * 1024,
        target_file_size: 16 * 1024,
        block_size: 512,
        l0_compaction_trigger: 2,
        triad,
        block_cache,
        ..Options::default()
    };
    if let Some(count) = std::env::var("TRIAD_SHARDS").ok().and_then(|n| n.trim().parse().ok()) {
        options.shards.count = count;
    }
    options
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "triad-prop-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn apply_ops(db: &Db, ops: &[Op], model: &mut BTreeMap<Vec<u8>, Vec<u8>>) {
    for op in ops {
        match op {
            Op::Put(key, value) => {
                let key = key_bytes(*key);
                db.put(&key, value).unwrap();
                model.insert(key, value.clone());
            }
            Op::Delete(key) => {
                let key = key_bytes(*key);
                db.delete(&key).unwrap();
                model.remove(&key);
            }
            Op::Get(key) => {
                let key = key_bytes(*key);
                assert_eq!(db.get(&key).unwrap().as_ref(), model.get(&key));
            }
            Op::Flush => db.flush().unwrap(),
        }
    }
}

fn assert_matches_model(db: &Db, model: &BTreeMap<Vec<u8>, Vec<u8>>) {
    for key in 0u16..400 {
        let key = key_bytes(key);
        assert_eq!(db.get(&key).unwrap().as_ref(), model.get(&key), "lookup mismatch for {key:?}");
    }
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = db.scan().unwrap().map(|r| r.unwrap()).collect();
    let expected: Vec<(Vec<u8>, Vec<u8>)> =
        model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    assert_eq!(scanned, expected, "scan mismatch");
}

/// One operation in a generated *versioned* test program: the plain ops plus
/// snapshot lifecycle events and forced compactions.
#[derive(Debug, Clone)]
enum VersionedOp {
    Put(u16, Vec<u8>),
    Delete(u16),
    Get(u16),
    Flush,
    /// Force flush + wait for every pending compaction (churns file lifetimes
    /// under the open snapshots).
    Compact,
    /// Open a snapshot (replacing the oldest once a handful are open).
    Snapshot,
    /// Drop the oldest open snapshot.
    DropSnapshot,
    /// Verify every open snapshot's `get` against the versioned model.
    CheckSnapshots,
}

fn versioned_op_strategy() -> impl Strategy<Value = VersionedOp> {
    prop_oneof![
        8 => (0u16..200, proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(k, v)| VersionedOp::Put(k, v)),
        3 => (0u16..200).prop_map(VersionedOp::Delete),
        2 => (0u16..200).prop_map(VersionedOp::Get),
        1 => Just(VersionedOp::Flush),
        1 => Just(VersionedOp::Compact),
        2 => Just(VersionedOp::Snapshot),
        1 => Just(VersionedOp::DropSnapshot),
        2 => Just(VersionedOp::CheckSnapshots),
    ]
}

/// One committed version of a key: the model clock at its commit and its
/// value (`None` = tombstone).
type KeyHistory = Vec<(u64, Option<Vec<u8>>)>;

/// The versioned reference model: every key's full committed history as
/// `(clock, value)` pairs, ascending by clock; `None` is a tombstone.
#[derive(Default)]
struct VersionedModel {
    /// Logical time: the number of writes committed so far.
    clock: u64,
    history: BTreeMap<Vec<u8>, KeyHistory>,
}

impl VersionedModel {
    /// Records one committed write, advancing the clock.
    fn record(&mut self, key: Vec<u8>, value: Option<Vec<u8>>) {
        self.clock += 1;
        self.history.entry(key).or_default().push((self.clock, value));
    }

    /// The value `key` had at model time `at` (newest version `<= at`).
    fn value_at(&self, key: &[u8], at: u64) -> Option<&Vec<u8>> {
        let versions = self.history.get(key)?;
        versions.iter().rev().find(|(clock, _)| *clock <= at).and_then(|(_, v)| v.as_ref())
    }

    /// The live value of `key` (newest version overall).
    fn live_value(&self, key: &[u8]) -> Option<&Vec<u8>> {
        self.value_at(key, u64::MAX)
    }

    /// The full `(key, value)` listing visible at model time `at`.
    fn listing_at(&self, at: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.history
            .keys()
            .filter_map(|key| self.value_at(key, at).map(|v| (key.clone(), v.clone())))
            .collect()
    }
}

/// An open snapshot and the model clock at which it was taken.
type ClockedSnapshot = (Snapshot, u64);

/// A scan bound: none, on a key, between two keys, before the first key or
/// past the last one.
fn range_bound_strategy() -> impl Strategy<Value = Option<Vec<u8>>> {
    prop_oneof![
        1 => Just(None),
        3 => (0u16..210).prop_map(|key| Some(key_bytes(key))),
        3 => (0u16..210).prop_map(|key| {
            let mut between = key_bytes(key);
            between.push(b'x');
            Some(between)
        }),
        1 => Just(Some(Vec::new())),
        1 => Just(Some(b"pkey".to_vec())),
        1 => Just(Some(b"zzz".to_vec())),
    ]
}

type Range = (Option<Vec<u8>>, Option<Vec<u8>>);

/// Random `[start, end)` ranges plus the edge cases every run checks: the
/// whole keyspace, from before the first key, from past the last, and
/// `start >= end`.
fn ranges_strategy() -> impl Strategy<Value = Vec<Range>> {
    proptest::collection::vec((range_bound_strategy(), range_bound_strategy()), 6..7).prop_map(
        |mut ranges| {
            ranges.extend([
                (None, None),
                (Some(b"pkey".to_vec()), Some(key_bytes(3))),
                (Some(b"zzz".to_vec()), None),
                (Some(key_bytes(50)), Some(key_bytes(10))),
                (Some(key_bytes(7)), Some(key_bytes(7))),
            ]);
            ranges
        },
    )
}

/// Checks `scan_range` over each of `ranges` against `listing`, the model's
/// full listing at the view's time.
fn assert_range_scans_match(
    what: &str,
    scan_range: impl Fn(Option<&[u8]>, Option<&[u8]>) -> triad::Result<triad::DbIterator>,
    listing: &[(Vec<u8>, Vec<u8>)],
    ranges: &[Range],
) {
    for (start, end) in ranges {
        let (start, end) = (start.as_deref(), end.as_deref());
        let scanned: Vec<(Vec<u8>, Vec<u8>)> =
            scan_range(start, end).unwrap().map(|r| r.unwrap()).collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> = listing
            .iter()
            .filter(|(key, _)| start.map_or(true, |s| key.as_slice() >= s))
            .filter(|(key, _)| end.map_or(true, |e| key.as_slice() < e))
            .cloned()
            .collect();
        assert_eq!(scanned, expected, "{what} scan_range({start:?}, {end:?}) mismatch");
    }
}

/// Checks one snapshot's point reads and scan against the model at the time
/// the snapshot was taken.
fn assert_snapshot_matches_model(
    &(ref snap, at): &ClockedSnapshot,
    model: &VersionedModel,
    full_scan: bool,
) {
    for key in 0u16..200 {
        let key = key_bytes(key);
        assert_eq!(
            snap.get(&key).unwrap().as_ref(),
            model.value_at(&key, at),
            "snapshot@{at} point-read mismatch for {key:?}"
        );
    }
    if full_scan {
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = snap.scan().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(scanned, model.listing_at(at), "snapshot@{at} scan mismatch");
    }
}

fn apply_versioned_ops(
    db: &Db,
    ops: &[VersionedOp],
    model: &mut VersionedModel,
    snapshots: &mut Vec<ClockedSnapshot>,
) {
    for op in ops {
        match op {
            VersionedOp::Put(key, value) => {
                let key = key_bytes(*key);
                db.put(&key, value).unwrap();
                model.record(key, Some(value.clone()));
            }
            VersionedOp::Delete(key) => {
                let key = key_bytes(*key);
                db.delete(&key).unwrap();
                model.record(key, None);
            }
            VersionedOp::Get(key) => {
                let key = key_bytes(*key);
                assert_eq!(db.get(&key).unwrap().as_ref(), model.live_value(&key));
            }
            VersionedOp::Flush => db.flush().unwrap(),
            VersionedOp::Compact => {
                db.flush().unwrap();
                db.wait_for_compactions().unwrap();
            }
            VersionedOp::Snapshot => {
                if snapshots.len() >= 4 {
                    snapshots.remove(0);
                }
                snapshots.push((db.snapshot(), model.clock));
            }
            VersionedOp::DropSnapshot => {
                if !snapshots.is_empty() {
                    snapshots.remove(0);
                }
            }
            VersionedOp::CheckSnapshots => {
                for snap in snapshots.iter() {
                    assert_snapshot_matches_model(snap, model, false);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 200, .. ProptestConfig::default() })]

    /// Arbitrary operation sequences behave exactly like a sorted map.
    fn engine_matches_btreemap(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        triad in config_strategy(),
        block_cache in block_cache_strategy(),
    ) {
        let dir = unique_dir("model");
        let db = Db::open(&dir, tiny_options(triad, block_cache)).unwrap();
        let mut model = BTreeMap::new();
        apply_ops(&db, &ops, &mut model);
        assert_matches_model(&db, &model);
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every open snapshot behaves exactly like the versioned reference model
    /// frozen at the moment it was taken, under randomized interleavings of writes, deletes,
    /// snapshot opens/drops, flushes and forced compactions — for every TRIAD
    /// configuration.
    fn snapshots_match_versioned_model(
        ops in proptest::collection::vec(versioned_op_strategy(), 1..120),
        triad in config_strategy(),
        ranges in ranges_strategy(),
        block_cache in block_cache_strategy(),
    ) {
        let dir = unique_dir("mvcc");
        let db = Db::open(&dir, tiny_options(triad, block_cache)).unwrap();
        let mut model = VersionedModel::default();
        let mut snapshots: Vec<ClockedSnapshot> = Vec::new();
        apply_versioned_ops(&db, &ops, &mut model, &mut snapshots);
        // Final deep check: every snapshot still open gets point reads *and* a
        // full scan against the model at its capture time, after one more round of
        // background churn.
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
        for snap in snapshots.iter() {
            assert_snapshot_matches_model(snap, &model, true);
            let (snap, at) = snap;
            let what = format!("snapshot@{at}");
            let listing = model.listing_at(*at);
            assert_range_scans_match(&what, |s, e| snap.scan_range(s, e), &listing, &ranges);
        }
        // The live view equals the model's newest versions (sanity: retention
        // never leaks old versions into unbounded reads).
        for key in 0u16..200 {
            let key = key_bytes(key);
            assert_eq!(db.get(&key).unwrap().as_ref(), model.live_value(&key));
        }
        let live: Vec<(Vec<u8>, Vec<u8>)> = db.scan().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(live, model.listing_at(u64::MAX), "live scan mismatch");
        let listing = model.listing_at(u64::MAX);
        assert_range_scans_match("live", |s, e| db.scan_range(s, e), &listing, &ranges);
        // Dropping every snapshot releases the pinned files to GC.
        snapshots.clear();
        db.wait_for_compactions().unwrap();
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same holds after closing and reopening the database.
    fn engine_matches_btreemap_across_restart(
        before in proptest::collection::vec(op_strategy(), 1..150),
        after in proptest::collection::vec(op_strategy(), 0..80),
        triad in config_strategy(),
        block_cache in block_cache_strategy(),
    ) {
        let dir = unique_dir("restart");
        let options = tiny_options(triad, block_cache);
        let mut model = BTreeMap::new();
        {
            let db = Db::open(&dir, options.clone()).unwrap();
            apply_ops(&db, &before, &mut model);
            db.close().unwrap();
        }
        {
            let db = Db::open(&dir, options).unwrap();
            assert_matches_model(&db, &model);
            apply_ops(&db, &after, &mut model);
            assert_matches_model(&db, &model);
            db.close().unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
