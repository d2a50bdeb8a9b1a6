//! Baseline engine behaviour: CRUD, flushing, compaction and statistics.

mod common;

use common::{key_for, open_small, single_shard, value_for};
use triad_core::{Db, Options, SyncMode, WriteBatch, WriteOptions};

#[test]
fn put_get_delete_round_trip() {
    let (db, _dir) = open_small("crud", |_| {});
    assert_eq!(db.get(b"missing").unwrap(), None);

    db.put(b"alpha", b"1").unwrap();
    db.put(b"beta", b"2").unwrap();
    assert_eq!(db.get(b"alpha").unwrap().as_deref(), Some(&b"1"[..]));
    assert_eq!(db.get(b"beta").unwrap().as_deref(), Some(&b"2"[..]));

    db.put(b"alpha", b"updated").unwrap();
    assert_eq!(db.get(b"alpha").unwrap().as_deref(), Some(&b"updated"[..]));

    db.delete(b"beta").unwrap();
    assert_eq!(db.get(b"beta").unwrap(), None);
    assert_eq!(db.get(b"alpha").unwrap().as_deref(), Some(&b"updated"[..]));
    db.close().unwrap();
}

#[test]
fn values_survive_explicit_flush() {
    let (db, _dir) = open_small("explicit-flush", |_| {});
    for i in 0..200u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let files = db.files_per_level();
    assert!(files[0] >= 1, "flush must create an L0 file, got {files:?}");
    for i in 0..200u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i} after flush");
    }
    // Updates after a flush shadow the on-disk values.
    db.put(key_for(3), value_for(3, 2)).unwrap();
    assert_eq!(db.get(key_for(3)).unwrap(), Some(value_for(3, 2)));
    db.close().unwrap();
}

#[test]
fn deletes_shadow_flushed_values() {
    let (db, _dir) = open_small("delete-shadow", |_| {});
    for i in 0..100u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    for i in (0..100u64).step_by(2) {
        db.delete(key_for(i)).unwrap();
    }
    for i in 0..100u64 {
        let got = db.get(key_for(i)).unwrap();
        if i % 2 == 0 {
            assert_eq!(got, None, "even key {i} was deleted");
        } else {
            assert_eq!(got, Some(value_for(i, 1)), "odd key {i} still present");
        }
    }
    // Deletes also survive another flush.
    db.flush().unwrap();
    assert_eq!(db.get(key_for(0)).unwrap(), None);
    db.close().unwrap();
}

#[test]
fn automatic_flushes_and_compactions_keep_data_readable() {
    let (db, _dir) = open_small("auto-compact", |options| {
        options.l0_compaction_trigger = 2;
    });
    // Write enough data (several times the 64 KiB test memtable) to force multiple
    // flushes and at least one compaction, with several versions per key. Each
    // round is flushed explicitly: a sealed memtable fully shadowed by newer
    // writes flushes to nothing, so without the forced flushes the L0 file count
    // (and whether compaction triggers) would depend on scheduling.
    for version in 1..=3u64 {
        for i in 0..600u64 {
            db.put(key_for(i), value_for(i, version)).unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_for_compactions().unwrap();

    for i in 0..600u64 {
        assert_eq!(
            db.get(key_for(i)).unwrap(),
            Some(value_for(i, 3)),
            "key {i} must have its latest version"
        );
    }
    let stats = db.stats();
    assert!(stats.flush_count >= 2, "expected several flushes, got {}", stats.flush_count);
    assert!(
        stats.compaction_count >= 1,
        "expected at least one compaction, got {}",
        stats.compaction_count
    );
    let files = db.files_per_level();
    assert!(
        files.iter().skip(1).any(|&n| n > 0),
        "compaction must populate a deeper level: {files:?}"
    );
    db.close().unwrap();
}

#[test]
fn scan_returns_sorted_live_entries() {
    let (db, _dir) = open_small("scan", |_| {});
    for i in (0..300u64).rev() {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    for i in 300..400u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    for i in (0..400u64).step_by(10) {
        db.delete(key_for(i)).unwrap();
    }
    let entries: Vec<(Vec<u8>, Vec<u8>)> = db.scan().unwrap().map(|r| r.unwrap()).collect();
    let expected: Vec<u64> = (0..400u64).filter(|i| i % 10 != 0).collect();
    assert_eq!(entries.len(), expected.len());
    for (entry, expect) in entries.iter().zip(expected.iter()) {
        assert_eq!(entry.0, key_for(*expect));
        assert_eq!(entry.1, value_for(*expect, 1));
    }
    for window in entries.windows(2) {
        assert!(window[0].0 < window[1].0, "scan must be sorted");
    }
    db.close().unwrap();
}

#[test]
fn range_scans_respect_bounds_across_memory_and_disk() {
    let (db, _dir) = open_small("range-scan", |_| {});
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    for i in 300..350u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.delete(key_for(120)).unwrap();

    // [100, 130): keys 100..129 except the deleted 120.
    let range: Vec<(Vec<u8>, Vec<u8>)> = db
        .scan_range(Some(&key_for(100)), Some(&key_for(130)))
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    let expected: Vec<u64> = (100..130).filter(|&i| i != 120).collect();
    assert_eq!(range.len(), expected.len());
    for (got, want) in range.iter().zip(expected.iter()) {
        assert_eq!(got.0, key_for(*want));
    }
    // Lower bound only: everything from 340 upward (spans memtable-only keys).
    let tail: Vec<_> =
        db.scan_range(Some(&key_for(340)), None).unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(tail.len(), 10);
    assert_eq!(tail[0].0, key_for(340));
    // Upper bound only.
    let head: Vec<_> =
        db.scan_range(None, Some(&key_for(3))).unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(head.len(), 3);
    // Empty range.
    assert_eq!(db.scan_range(Some(&key_for(10)), Some(&key_for(10))).unwrap().count(), 0);
    // Range entirely past the data.
    assert_eq!(db.scan_range(Some(&key_for(999)), None).unwrap().count(), 0);
    db.close().unwrap();
}

#[test]
fn write_batches_apply_atomically_in_order() {
    let (db, _dir) = open_small("batch", |_| {});
    let mut batch = WriteBatch::new();
    batch.put(b"a".to_vec(), b"1".to_vec());
    batch.put(b"b".to_vec(), b"2".to_vec());
    batch.delete(b"a".to_vec());
    batch.put(b"c".to_vec(), b"3".to_vec());
    db.write(batch, WriteOptions::default()).unwrap();
    assert_eq!(
        db.get(b"a").unwrap(),
        None,
        "the delete inside the batch wins over the earlier put"
    );
    assert_eq!(db.get(b"b").unwrap().as_deref(), Some(&b"2"[..]));
    assert_eq!(db.get(b"c").unwrap().as_deref(), Some(&b"3"[..]));
    // An empty batch is a no-op.
    db.write(WriteBatch::new(), WriteOptions::default()).unwrap();
    db.close().unwrap();
}

#[test]
fn stats_reflect_user_traffic_and_write_amplification() {
    let (db, _dir) = open_small("stats", |options| {
        options.l0_compaction_trigger = 2;
    });
    for version in 1..=2u64 {
        for i in 0..400u64 {
            db.put(key_for(i), value_for(i, version)).unwrap();
        }
    }
    db.delete(key_for(0)).unwrap();
    for i in 0..50u64 {
        db.get(key_for(i)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    let stats = db.stats();
    assert_eq!(stats.user_writes, 800);
    assert_eq!(stats.user_deletes, 1);
    assert_eq!(stats.user_reads, 50);
    assert!(stats.user_read_hits >= 49, "almost every read hits, got {}", stats.user_read_hits);
    assert!(stats.wal_bytes_written > 0);
    assert!(stats.bytes_flushed > 0);
    assert!(stats.write_amplification() >= 1.0);
    assert!(stats.background_time().as_micros() > 0);
    assert!(stats.read_amplification() >= 0.0);
    db.close().unwrap();
}

#[test]
fn explicit_flush_counts_its_log_rotation() {
    let (db, _dir) = open_small("flush-rotation", single_shard);
    for i in 0..10u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    let before = db.stats().wal_rotations;
    db.flush().unwrap();
    assert_eq!(db.stats().wal_rotations, before + 1, "one flush seals exactly one log");
    db.close().unwrap();
}

#[test]
fn sync_modes_are_accepted() {
    for (name, mode) in [
        ("nosync", SyncMode::NoSync),
        ("sync-every", SyncMode::SyncEveryWrite),
        ("sync-n", SyncMode::SyncEvery(8)),
    ] {
        let (db, _dir) = open_small(&format!("sync-{name}"), |options| {
            options.sync_mode = mode;
        });
        for i in 0..32u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        let stats = db.stats();
        match mode {
            SyncMode::NoSync => assert_eq!(stats.wal_syncs, 0),
            SyncMode::SyncEveryWrite => assert_eq!(stats.wal_syncs, 32),
            SyncMode::SyncEvery(_) => assert!(stats.wal_syncs >= 3, "got {}", stats.wal_syncs),
        }
        // Per-write sync override always syncs.
        db.put_opt(b"forced", b"sync", WriteOptions { sync: true }).unwrap();
        assert!(db.stats().wal_syncs >= stats.wal_syncs + u64::from(mode == SyncMode::NoSync));
        db.close().unwrap();
    }
}

#[test]
fn empty_keys_and_large_values_are_handled() {
    let (db, _dir) = open_small("edge-sizes", |_| {});
    db.put(b"", b"empty-key").unwrap();
    assert_eq!(db.get(b"").unwrap().as_deref(), Some(&b"empty-key"[..]));
    let large_value = vec![0xabu8; 300 * 1024];
    db.put(b"large", &large_value).unwrap();
    db.flush().unwrap();
    assert_eq!(db.get(b"large").unwrap(), Some(large_value));
    assert_eq!(db.get(b"").unwrap().as_deref(), Some(&b"empty-key"[..]));
    db.close().unwrap();
}

#[test]
fn writes_after_close_are_rejected() {
    let (db, _dir) = open_small("closed", |_| {});
    db.put(b"a", b"1").unwrap();
    db.close().unwrap();
    assert!(db.put(b"b", b"2").is_err());
    // Closing twice is fine.
    db.close().unwrap();
}

#[test]
fn invalid_options_are_rejected_at_open() {
    let dir = common::temp_dir("bad-options");
    let mut options = Options::small_for_tests();
    options.memtable_size = 0;
    assert!(Db::open(&dir, options).is_err());
}

#[test]
fn disk_usage_and_files_per_level_report_layout() {
    let (db, _dir) = open_small("layout", |_| {});
    assert_eq!(db.disk_usage(), 0);
    for i in 0..500u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    assert!(db.disk_usage() > 0);
    let files = db.files_per_level();
    assert_eq!(files.len(), db.options().num_levels);
    assert!(files[0] >= 1);
    db.close().unwrap();
}

#[test]
fn a_single_read_counts_one_probe_per_consulted_component() {
    let (db, _dir) = open_small("probe-counters", common::single_shard);
    for i in 0..100u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    assert_eq!(db.files_per_level()[0], 1, "one flushed memtable makes one L0 table");

    // A hit below the (now empty) memtable: one memtable probe, one table probe.
    let before = db.stats();
    assert_eq!(db.get(key_for(7)).unwrap(), Some(value_for(7, 1)));
    let delta = db.stats().delta_since(&before);
    assert_eq!(delta.user_reads, 1, "one read is one read — no hidden retries");
    assert_eq!(delta.memtable_probes, 1, "the active memtable is consulted exactly once");
    assert_eq!(delta.table_probes, 1, "the single L0 table is consulted exactly once");

    // A miss outside every table's key range never reaches the disk component.
    let before = db.stats();
    assert_eq!(db.get(b"zzz-way-out-of-range").unwrap(), None);
    let delta = db.stats().delta_since(&before);
    assert_eq!(delta.user_reads, 1);
    assert_eq!(delta.memtable_probes, 1);
    assert_eq!(delta.table_probes, 0, "no table overlaps the key, so no probe");

    // A hit in the active memtable stops there.
    db.put(key_for(7), value_for(7, 2)).unwrap();
    let before = db.stats();
    assert_eq!(db.get(key_for(7)).unwrap(), Some(value_for(7, 2)));
    let delta = db.stats().delta_since(&before);
    assert_eq!(delta.user_reads, 1);
    assert_eq!(delta.memtable_probes, 1);
    assert_eq!(delta.table_probes, 0);
    db.close().unwrap();
}
