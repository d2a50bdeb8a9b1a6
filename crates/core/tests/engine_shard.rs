//! Keyspace sharding: routing equivalence, shard-spanning snapshot atomicity
//! and the sharded on-disk layout.
//!
//! The load-bearing property is *equivalence*: a sharded database must be
//! observationally identical to a single-shard database given the same
//! operation stream — same point reads, same scans (ordering, dedup and
//! seqno bounds are exercised by overwrites, deletes and open snapshots),
//! same snapshot views. The atomicity test then checks the one cross-shard
//! coordination point: a shard-spanning snapshot never observes half of a
//! cross-shard batch, no matter how hard writers churn every shard.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{key_for, open_small, temp_dir, value_for};
use triad_core::{Db, Options, ShardConfig, WriteBatch, WriteOptions};

fn open_sharded(name: &str, count: usize) -> (Db, std::path::PathBuf) {
    open_small(name, |options| options.shards = ShardConfig::with_count(count))
}

/// Drives an identical operation stream — seeded puts, interleaved
/// overwrites, deletes and batches — into one N-sharded and one single-shard
/// database, then checks every observable surface agrees.
#[test]
fn sharded_database_is_observationally_equivalent_to_single_shard() {
    let (sharded, _dir_s) = open_sharded("equiv-sharded", 4);
    let (single, _dir_1) = open_small("equiv-single", common::single_shard);
    assert_eq!(sharded.shard_count(), 4);
    assert_eq!(single.shard_count(), 1);

    // A deterministic pseudo-random op stream (xorshift) over a smallish key
    // space, so overwrites and deletes hit real prior versions.
    let mut state = 0x9e37_79b9_u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let apply = |db: &Db, op: u64, key: u64, version: u64| match op % 4 {
        0 | 1 => db.put(key_for(key), value_for(key, version)).unwrap(),
        2 => db.delete(key_for(key)).unwrap(),
        _ => {
            let mut batch = WriteBatch::new();
            // Consecutive keys usually hash to different shards, making this
            // a cross-shard batch on the sharded side.
            for offset in 0..4 {
                batch.put(key_for(key + offset), value_for(key + offset, version));
            }
            db.write(batch, WriteOptions::default()).unwrap();
        }
    };

    let mut mid_snapshot = None;
    for round in 0..3_000u64 {
        let (op, key) = (rng(), rng() % 600);
        apply(&sharded, op, key, round);
        apply(&single, op, key, round);
        if round == 1_500 {
            // Pin a mid-stream view on both sides; checked after more churn.
            mid_snapshot = Some((sharded.snapshot(), single.snapshot()));
        }
        if round == 1_000 {
            sharded.flush().unwrap();
            single.flush().unwrap();
        }
    }

    // Point reads agree on every key ever touched.
    for key in 0..600u64 {
        assert_eq!(
            sharded.get(key_for(key)).unwrap(),
            single.get(key_for(key)).unwrap(),
            "point read diverges on key {key}"
        );
    }

    // Full scans agree: same keys, same values, same order, no duplicates.
    let via_shards: Vec<_> = sharded.scan().unwrap().map(|kv| kv.unwrap()).collect();
    let via_single: Vec<_> = single.scan().unwrap().map(|kv| kv.unwrap()).collect();
    assert_eq!(via_shards, via_single, "k-way merged scan diverges from single-shard scan");
    let mut sorted = via_shards.clone();
    sorted.sort();
    sorted.dedup_by(|a, b| a.0 == b.0);
    assert_eq!(via_shards, sorted, "merged scan must be sorted and duplicate-free");

    // Range scans agree, including bounds that split shards' key sets.
    let (lo, hi) = (key_for(100), key_for(450));
    let ranged_shards: Vec<_> =
        sharded.scan_range(Some(&lo), Some(&hi)).unwrap().map(|kv| kv.unwrap()).collect();
    let ranged_single: Vec<_> =
        single.scan_range(Some(&lo), Some(&hi)).unwrap().map(|kv| kv.unwrap()).collect();
    assert_eq!(ranged_shards, ranged_single, "bounded merged scan diverges");

    // The mid-stream snapshots still agree with each other (seqno-bounded
    // reads survived 1500 further rounds of churn plus a flush).
    let (snap_sharded, snap_single) = mid_snapshot.unwrap();
    let frozen_shards: Vec<_> = snap_sharded.scan().unwrap().map(|kv| kv.unwrap()).collect();
    let frozen_single: Vec<_> = snap_single.scan().unwrap().map(|kv| kv.unwrap()).collect();
    assert_eq!(frozen_shards, frozen_single, "snapshot scans diverge");
    for key in (0..600u64).step_by(7) {
        assert_eq!(
            snap_sharded.get(key_for(key)).unwrap(),
            snap_single.get(key_for(key)).unwrap(),
            "snapshot point read diverges on key {key}"
        );
    }

    sharded.close().unwrap();
    single.close().unwrap();
}

/// Four writers churn every shard with cross-shard batches that maintain an
/// invariant (all four keys of a batch carry the same version tag); a
/// shard-spanning snapshot taken mid-churn must observe each batch
/// all-or-nothing, per the router-gate protocol.
#[test]
fn shard_spanning_snapshots_are_batch_atomic_under_churn() {
    let (db, _dir) = open_sharded("snap-atomic", 4);
    let db = Arc::new(db);
    let writers = 4u64;
    let stop = Arc::new(AtomicBool::new(false));

    // Each writer owns a disjoint set of 4-key groups; a batch rewrites one
    // whole group to a new version. Group keys are spread far apart so they
    // hash to a mix of shards.
    let group_keys = |writer: u64, group: u64| -> Vec<u64> {
        (0..4).map(|slot| writer * 1_000_000 + group * 1_000 + slot * 271).collect()
    };

    let mut handles = Vec::new();
    for writer in 0..writers {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut version = 1u64;
            while !stop.load(Ordering::Relaxed) {
                for group in 0..8u64 {
                    let mut batch = WriteBatch::new();
                    for key in group_keys(writer, group) {
                        batch.put(key_for(key), value_for(version, writer));
                    }
                    db.write(batch, WriteOptions::default()).unwrap();
                }
                version += 1;
            }
        }));
    }

    // Take snapshots while the writers run and check group consistency: all
    // four keys of a group must show the same version (or all be absent —
    // only possible before the writer's first pass).
    for _ in 0..60 {
        let snapshot = db.snapshot();
        for writer in 0..writers {
            for group in 0..8u64 {
                let values: Vec<Option<Vec<u8>>> = group_keys(writer, group)
                    .into_iter()
                    .map(|key| snapshot.get(key_for(key)).unwrap())
                    .collect();
                let first = &values[0];
                assert!(
                    values.iter().all(|value| value == first),
                    "snapshot observed a torn cross-shard batch: writer {writer} group {group} \
                     returned {values:?}"
                );
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    stop.store(true, Ordering::Relaxed);
    for handle in handles {
        handle.join().unwrap();
    }
    db.close().unwrap();
}

#[test]
fn single_shard_databases_keep_the_unsharded_root_layout() {
    let (db, dir) = open_small("root-layout", common::single_shard);
    db.put(b"a", b"1").unwrap();
    db.flush().unwrap();
    assert!(!dir.join("SHARDS").exists(), "no marker for a single-shard database");
    assert!(!dir.join("shard-000").exists(), "no subdirectories for a single-shard database");
    assert!(dir.join("CURRENT").exists(), "manifest pointer lives at the root");
    db.close().unwrap();
}

#[test]
fn sharded_layout_matches_expected_live_files_and_gc_converges() {
    let (db, dir) = open_sharded("sharded-layout", 3);
    for i in 0..2_000u64 {
        db.put(key_for(i % 400), value_for(i, i)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    assert!(dir.join("SHARDS").exists());
    for shard in 0..3 {
        assert!(dir.join(format!("shard-{shard:03}")).join("CURRENT").exists());
    }
    common::assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
}

#[test]
fn persisted_shard_count_wins_on_reopen() {
    let dir = temp_dir("persisted-count");
    let mut options = Options::small_for_tests();
    options.shards = ShardConfig::with_count(4);
    let db = Db::open(&dir, options).unwrap();
    for i in 0..200u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.close().unwrap();

    // Reopening with a different requested count silently keeps the
    // persisted one; the effective count is visible through options().
    let mut options = Options::small_for_tests();
    options.shards = ShardConfig::with_count(1);
    let db = Db::open(&dir, options).unwrap();
    assert_eq!(db.shard_count(), 4);
    assert_eq!(db.options().shards.count, 4);
    for i in 0..200u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i} lost on reopen");
    }
    db.close().unwrap();
}

#[test]
fn unsharded_databases_cannot_be_reopened_sharded() {
    let dir = temp_dir("no-reshard");
    let mut options = Options::small_for_tests();
    options.shards = ShardConfig::with_count(1);
    let db = Db::open(&dir, options.clone()).unwrap();
    db.put(b"a", b"1").unwrap();
    db.close().unwrap();

    options.shards = ShardConfig::with_count(4);
    let err = Db::open(&dir, options).unwrap_err();
    assert!(
        matches!(err, triad_core::Error::InvalidArgument(_)),
        "re-sharding must be rejected loudly, got {err:?}"
    );
}

/// Writes acknowledged on a sharded database survive a close/reopen cycle —
/// recovery runs per shard.
#[test]
fn sharded_databases_recover_every_shard() {
    let dir = temp_dir("sharded-recovery");
    let mut options = Options::small_for_tests();
    options.shards = ShardConfig::with_count(4);
    let db = Db::open(&dir, options.clone()).unwrap();
    for i in 0..1_000u64 {
        db.put(key_for(i), value_for(i, 7)).unwrap();
    }
    // Half flushed, half only in the commit logs.
    db.flush().unwrap();
    for i in 1_000..2_000u64 {
        db.put(key_for(i), value_for(i, 7)).unwrap();
    }
    db.close().unwrap();

    let db = Db::open(&dir, options).unwrap();
    for i in 0..2_000u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 7)), "key {i} lost");
    }
    db.close().unwrap();
}
