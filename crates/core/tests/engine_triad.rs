//! Behaviour of the three TRIAD techniques, individually and combined.

mod common;

use common::{key_for, open_small, single_shard, temp_dir, value_for};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use triad_core::{Db, HotColdPolicy, Options, SyncMode, TriadConfig};

/// Applies a deterministic skewed update stream to `db`: 10% of the keys receive 90%
/// of the updates. Returns the logically expected final state.
fn apply_skewed_workload(
    db: &Db,
    keys: u64,
    ops: u64,
    seed: u64,
) -> std::collections::BTreeMap<Vec<u8>, Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = std::collections::BTreeMap::new();
    let hot_keys = (keys / 10).max(1);
    for version in 0..ops {
        let key_index = if rng.gen::<f64>() < 0.9 {
            rng.gen_range(0..hot_keys)
        } else {
            rng.gen_range(hot_keys..keys)
        };
        let key = key_for(key_index);
        if rng.gen::<f64>() < 0.05 {
            db.delete(&key).unwrap();
            model.remove(&key);
        } else {
            let value = value_for(key_index, version);
            db.put(&key, &value).unwrap();
            model.insert(key, value);
        }
    }
    model
}

fn verify_against_model(db: &Db, model: &std::collections::BTreeMap<Vec<u8>, Vec<u8>>, keys: u64) {
    for i in 0..keys {
        let key = key_for(i);
        assert_eq!(db.get(&key).unwrap(), model.get(&key).cloned(), "mismatch for key {i}");
    }
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = db.scan().unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(scanned.len(), model.len(), "scan length mismatch");
    for ((scan_key, scan_value), (model_key, model_value)) in scanned.iter().zip(model.iter()) {
        assert_eq!(scan_key, model_key);
        assert_eq!(scan_value, model_value);
    }
}

#[test]
fn every_triad_configuration_is_logically_equivalent_to_the_baseline() {
    let configs = [
        ("baseline", TriadConfig::baseline()),
        ("mem", TriadConfig::mem_only()),
        ("disk", TriadConfig::disk_only()),
        ("log", TriadConfig::log_only()),
        ("all", TriadConfig::all_enabled()),
    ];
    for (name, triad) in configs {
        let (db, _dir) = open_small(&format!("equiv-{name}"), |options| {
            options.triad = triad.clone();
            options.l0_compaction_trigger = 2;
        });
        let model = apply_skewed_workload(&db, 400, 4_000, 42);
        verify_against_model(&db, &model, 400);
        // Force all background work and re-verify: flushing and compaction must not
        // change the logical contents.
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
        verify_against_model(&db, &model, 400);
        db.close().unwrap();
    }
}

#[test]
fn triad_mem_retains_hot_entries_in_memory() {
    let (db, _dir) = open_small("triad-mem", |options| {
        options.triad = TriadConfig::mem_only();
        // Isolate the hot/cold split: only a full memtable or the explicit
        // flush rotates, so no rotation takes the small-flush path.
        options.max_log_size = 64 << 20;
    });
    apply_skewed_workload(&db, 500, 8_000, 7);
    db.flush().unwrap();
    let stats = db.stats();
    assert!(stats.hot_entries_retained > 0, "TRIAD-MEM must keep some hot entries in memory");
    assert_eq!(stats.small_flush_skips, 0, "every rotation must have been a real flush");
    db.close().unwrap();
}

/// TRIAD-MEM's hot write-back moves the newest copy of a hot key out of the
/// sealed log, which the flush then retires. When writes are acknowledged
/// durable, that copy must be fsynced first: the flush issues exactly one WAL
/// fsync for its write-back, and none under `NoSync`.
#[test]
fn triad_mem_fsyncs_the_hot_write_back_when_writes_are_synced() {
    for (name, mode, write_back_syncs) in
        [("nosync", SyncMode::NoSync, 0), ("sync-every", SyncMode::SyncEveryWrite, 1)]
    {
        let (db, _dir) = open_small(&format!("hot-sync-{name}"), |options| {
            single_shard(options);
            options.sync_mode = mode;
            options.triad = TriadConfig::mem_only();
            options.triad.hot_key_policy = HotColdPolicy::TopCount(2);
            // Only the explicit flush below may rotate the log.
            options.memtable_size = 16 << 20;
            options.max_log_size = 16 << 20;
        });
        for i in 0..20u64 {
            db.put(key_for(i), value_for(i, 0)).unwrap();
        }
        for version in 1..10u64 {
            for i in 0..2u64 {
                db.put(key_for(i), value_for(i, version)).unwrap();
            }
        }
        let before = db.stats().wal_syncs;
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.hot_entries_retained, 2, "{name}: both hot keys are written back");
        assert_eq!(stats.wal_syncs - before, write_back_syncs, "{name}: write-back fsyncs");
        for i in 0..2u64 {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 9)));
        }
        db.close().unwrap();
    }
}

#[test]
fn triad_mem_skips_small_flushes_when_the_log_fills_up() {
    // A tiny log limit with a large memtable: only updates to a handful of keys, so
    // the memtable stays small while the log keeps growing. The paper's FLUSH_TH rule
    // should rotate the log without flushing.
    let (db, _dir) = open_small("flush-skip", |options| {
        options.memtable_size = 1024 * 1024;
        options.max_log_size = 32 * 1024;
        options.triad = TriadConfig::mem_only();
    });
    for version in 0..2_000u64 {
        let key = key_for(version % 10);
        db.put(&key, value_for(version % 10, version)).unwrap();
    }
    let stats = db.stats();
    assert!(stats.small_flush_skips > 0, "expected small-flush skips, got {stats:?}");
    assert_eq!(stats.flush_count, 0, "no real flush should have happened");
    assert_eq!(db.files_per_level()[0], 0, "no L0 files should exist");
    // The data is still correct.
    for i in 0..10u64 {
        assert!(db.get(key_for(i)).unwrap().is_some());
    }
    db.close().unwrap();
}

/// A small-flush skip points every memtable entry at its rewrite in the new
/// log. With TRIAD-LOG on, the next flush then finds every cold entry in the
/// log it seals and indexes them into a CL-SSTable, and reads resolve the
/// values through those positions. An entry left pointing at an older log
/// would make the flush fall back to a regular SSTable.
#[test]
fn entries_a_skip_rewrote_are_flushed_into_a_cl_sstable() {
    let (db, _dir) = open_small("skip-then-cl-flush", |options| {
        single_shard(options);
        options.memtable_size = 1024 * 1024;
        options.max_log_size = 32 * 1024;
        options.triad = TriadConfig::all_enabled();
    });
    // Written once before the skips, so afterwards only the rewrites hold them.
    for i in 100..150u64 {
        db.put(key_for(i), value_for(i, 0)).unwrap();
    }
    for version in 0..2_000u64 {
        db.put(key_for(version % 10), value_for(version % 10, version)).unwrap();
    }
    assert!(db.stats().small_flush_skips > 2);
    assert_eq!(db.stats().flush_count, 0);
    db.flush().unwrap();
    let stats = db.stats();
    assert_eq!(stats.flush_count, 1);
    assert!(
        stats.logical_bytes_flushed > stats.bytes_flushed,
        "the flush wrote a regular SSTable, not a CL-SSTable: {stats:?}"
    );
    let mut expected: Vec<(Vec<u8>, Vec<u8>)> = (100..150u64)
        .map(|i| (key_for(i), value_for(i, 0)))
        .chain((0..10u64).map(|i| (key_for(i), value_for(i, 1_990 + i))))
        .collect();
    expected.sort();
    for (key, value) in &expected {
        assert_eq!(db.get(key).unwrap().as_ref(), Some(value));
    }
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = db.scan().unwrap().map(|item| item.unwrap()).collect();
    assert_eq!(scanned, expected);
    db.close().unwrap();
}

/// `rotation_gate_micros` counts the time rotations hold the commit gate:
/// it grows with small-flush skips, with a regular seal and with the forced
/// rotation of `Db::flush`.
#[test]
fn rotation_gate_micros_grows_with_every_kind_of_rotation() {
    let (db, _dir) = open_small("rotation-gate", |options| {
        single_shard(options);
        options.memtable_size = 1024 * 1024;
        options.max_log_size = 32 * 1024;
        options.triad = TriadConfig::mem_only();
    });
    let gate = |db: &Db| db.stats().rotation_gate_micros;
    assert_eq!(gate(&db), 0);
    for version in 0..2_000u64 {
        db.put(key_for(version % 10), value_for(version % 10, version)).unwrap();
    }
    let after_skips = gate(&db);
    assert!(db.stats().small_flush_skips > 2);
    assert!(after_skips > 0, "skips held the gate for no time");
    db.flush().unwrap();
    let after_flush = gate(&db);
    assert!(after_flush > after_skips, "the forced rotation was not counted");
    // Large distinct values fill the memtable past FLUSH_TH until a rotation
    // seals. One put rotates at most once, so the put that seals adds the
    // seal's hold alone.
    let seals = |db: &Db| db.stats().wal_rotations - db.stats().small_flush_skips;
    let sealed = seals(&db);
    let mut i = 10u64;
    loop {
        let before = gate(&db);
        db.put(key_for(i), vec![b'x'; 100 * 1024]).unwrap();
        i += 1;
        if seals(&db) > sealed {
            assert!(gate(&db) > before, "the seal was not counted");
            break;
        }
    }
    db.close().unwrap();
}

/// FLUSH_TH is half the memtable budget. Distinct keys fill the 64 KiB test
/// memtable, so every rotation is a real flush. A threshold above the memtable
/// budget would count the full memtable as small: each write past it would
/// rewrite the whole memtable into a fresh log and never flush.
#[test]
fn triad_mem_flushes_a_full_memtable_instead_of_skipping() {
    let dir = temp_dir("flush-th");
    let options = Options { triad: TriadConfig::mem_only(), ..Options::small_for_tests() };
    assert_eq!(options.shards.count, 1);
    let db = Db::open(&dir, options).unwrap();
    let mut user_bytes = 0u64;
    for i in 0..4_000u64 {
        let (key, value) = (key_for(i), value_for(i, 0));
        user_bytes += (key.len() + value.len()) as u64;
        db.put(&key, &value).unwrap();
    }
    db.wait_for_compactions().unwrap();
    let stats = db.stats();
    assert!(stats.flush_count > 0, "a full memtable must flush, got {stats:?}");
    assert_eq!(stats.small_flush_skips, 0, "a full memtable is never small");
    assert!(
        stats.wal_bytes_written < 2 * user_bytes,
        "the WAL wrote {} bytes for {user_bytes} user bytes",
        stats.wal_bytes_written
    );
    db.close().unwrap();
}

#[test]
fn baseline_flushes_even_when_memtable_is_small() {
    let (db, _dir) = open_small("baseline-no-skip", |options| {
        options.memtable_size = 1024 * 1024;
        options.max_log_size = 32 * 1024;
        options.triad = TriadConfig::baseline();
    });
    for version in 0..2_000u64 {
        let key = key_for(version % 10);
        db.put(&key, value_for(version % 10, version)).unwrap();
    }
    db.flush().unwrap();
    let stats = db.stats();
    assert_eq!(stats.small_flush_skips, 0);
    assert!(stats.flush_count > 0, "the baseline flushes whenever the log fills up");
    db.close().unwrap();
}

#[test]
fn triad_log_writes_cl_sstables_and_flushes_fewer_bytes() {
    let run = |triad: TriadConfig, name: &str| -> (u64, u64, bool) {
        let (db, dir) = open_small(name, |options| {
            common::single_shard(options); // flush-byte accounting assumes one shard
            options.triad = triad;
            // Disable compaction so we only measure flush I/O.
            options.l0_compaction_trigger = 1_000;
            options.triad.max_l0_files = 1_000;
        });
        for i in 0..3_000u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        for i in (0..3_000u64).step_by(97) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
        }
        let has_clidx = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().file_name().to_string_lossy().ends_with(".clidx"));
        db.close().unwrap();
        (stats.bytes_flushed, stats.flush_count, has_clidx)
    };

    let (baseline_bytes, baseline_flushes, baseline_clidx) =
        run(TriadConfig::baseline(), "log-baseline");
    let (triad_bytes, triad_flushes, triad_clidx) = run(TriadConfig::log_only(), "log-triad");
    assert!(!baseline_clidx, "baseline must not produce CL-SSTables");
    assert!(triad_clidx, "TRIAD-LOG must produce CL-SSTable index files");
    assert!(baseline_flushes > 0 && triad_flushes > 0);
    assert!(
        triad_bytes * 3 < baseline_bytes,
        "TRIAD-LOG flush bytes ({triad_bytes}) should be far below the baseline ({baseline_bytes})"
    );
}

/// Writes flush `batch` of `len` keys. Each flush repeats the last fifth of the
/// keys of the flush before it: L0 files that overlap a little, so TRIAD-DISK
/// reads an overlap ratio (0.1 for two files) that is neither zero nor past
/// its threshold, and defers.
fn put_overlapping_batch(db: &Db, batch: u64, len: u64) {
    let first = batch * (len - len / 5);
    for key in first..first + len {
        db.put(key_for(key), value_for(key, batch)).unwrap();
    }
}

#[test]
fn triad_disk_defers_compactions_and_tolerates_more_l0_files() {
    let run = |triad: TriadConfig, name: &str| -> (u64, u64) {
        let (db, _dir) = open_small(name, |options| {
            options.l0_compaction_trigger = 2;
            options.triad = triad;
            options.triad.max_l0_files = 8;
            options.triad.overlap_ratio_threshold = 0.4;
        });
        // Low but non-zero overlap per flush, so TRIAD-DISK should defer.
        for batch in 0..6u64 {
            put_overlapping_batch(&db, batch, 400);
            db.flush().unwrap();
        }
        db.wait_for_compactions().unwrap();
        let stats = db.stats();
        db.close().unwrap();
        (stats.compaction_count, stats.compactions_deferred)
    };
    let (baseline_compactions, baseline_deferred) = run(TriadConfig::baseline(), "disk-baseline");
    let (triad_compactions, triad_deferred) = run(TriadConfig::disk_only(), "disk-triad");
    assert_eq!(baseline_deferred, 0);
    assert!(baseline_compactions >= 1);
    assert!(triad_deferred > 0, "TRIAD-DISK should defer low-overlap compactions");
    assert!(
        triad_compactions <= baseline_compactions,
        "deferral must not increase compaction count ({triad_compactions} vs {baseline_compactions})"
    );
}

/// Only the background worker counts a deferral, once per version it defers
/// on: waits that merely ask whether a compaction is due count nothing.
#[test]
fn waiting_on_a_deferred_l0_does_not_count_more_deferrals() {
    let (db, _dir) = open_small("disk-deferral-count", |options| {
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::disk_only();
        options.triad.max_l0_files = 8;
        options.triad.overlap_ratio_threshold = 0.4;
    });
    // One small L0 file per flush: seven files, under the cap of eight, with
    // low but non-zero overlap.
    for batch in 0..7u64 {
        put_overlapping_batch(&db, batch, 200);
        db.flush().unwrap();
    }
    db.wait_for_compactions().unwrap();
    let before = db.stats();
    assert!(before.compactions_deferred > 0, "low-overlap L0 files must be deferred");
    assert_eq!(before.compaction_count, 0);
    for _ in 0..10 {
        db.wait_for_compactions().unwrap();
    }
    assert_eq!(db.stats().compactions_deferred, before.compactions_deferred);
    db.close().unwrap();
}

#[test]
fn triad_disk_still_compacts_when_overlap_is_high() {
    let (db, _dir) = open_small("disk-overlap", |options| {
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::disk_only();
        options.triad.max_l0_files = 20;
        options.triad.overlap_ratio_threshold = 0.4;
    });
    // Every flush rewrites the same keys: overlap close to 1, so compaction proceeds.
    for round in 0..4u64 {
        for i in 0..400u64 {
            db.put(key_for(i), value_for(i, round)).unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_for_compactions().unwrap();
    let stats = db.stats();
    assert!(stats.compaction_count >= 1, "high-overlap L0 files must be compacted");
    // Data still correct, at its newest version.
    for i in (0..400u64).step_by(37) {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)));
    }
    db.close().unwrap();
}

#[test]
fn triad_disk_hard_cap_forces_compaction_regardless_of_overlap() {
    let (db, _dir) = open_small("disk-cap", |options| {
        common::single_shard(options); // L0 file-count arithmetic assumes one shard
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::disk_only();
        options.triad.max_l0_files = 3;
        options.triad.overlap_ratio_threshold = 0.99; // effectively never by ratio
    });
    // Overlapping flushes: a disjoint L0 would compact at the trigger and
    // never reach the cap.
    for batch in 0..5u64 {
        put_overlapping_batch(&db, batch, 300);
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
    }
    let files = db.files_per_level();
    assert!(files[0] < 5, "the hard cap must bound L0 growth, got {files:?}");
    let stats = db.stats();
    assert!(stats.compactions_deferred > 0, "L0 must have waited for the cap: {stats:?}");
    assert!(stats.compaction_count >= 1);
    db.close().unwrap();
}

/// L0 files that share no keys, such as sequential flushes of a load, gain
/// nothing from waiting: each must be rewritten once anyway. TRIAD-DISK
/// compacts them at the baseline trigger, counts no deferral, and
/// `wait_for_compactions` leaves L0 below the trigger.
#[test]
fn triad_disk_compacts_disjoint_l0_files_at_the_trigger() {
    let mut shards = 0;
    let (db, _dir) = open_small("disk-disjoint", |options| {
        shards = options.shards.count;
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::disk_only();
        options.triad.max_l0_files = 8;
        options.triad.overlap_ratio_threshold = 0.4;
    });
    for batch in 0..6u64 {
        for key in batch * 1_000..batch * 1_000 + 300 {
            db.put(key_for(key), value_for(key, batch)).unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_for_compactions().unwrap();
    let stats = db.stats();
    assert_eq!(stats.compactions_deferred, 0, "disjoint L0 files were deferred: {stats:?}");
    assert!(stats.compaction_count >= 1);
    let files = db.files_per_level();
    assert!(files[0] < 2 * shards, "a shard's L0 is left at the trigger: {files:?}");
    for key in (0..6_000u64).filter(|key| key % 1_000 < 300).step_by(37) {
        assert_eq!(db.get(key_for(key)).unwrap(), Some(value_for(key, key / 1_000)));
    }
    db.close().unwrap();
}

#[test]
fn full_triad_reduces_flush_bytes_under_skew() {
    let run = |triad: TriadConfig, name: &str| -> triad_core::StatSnapshot {
        let (db, _dir) = open_small(name, |options| {
            options.triad = triad;
            options.l0_compaction_trigger = 2;
        });
        apply_skewed_workload(&db, 600, 12_000, 99);
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
        let stats = db.stats();
        db.close().unwrap();
        stats
    };
    let baseline = run(TriadConfig::baseline(), "full-baseline");
    let triad = run(TriadConfig::all_enabled(), "full-triad");
    let baseline_bg = baseline.bytes_flushed + baseline.bytes_compacted_written;
    let triad_bg = triad.bytes_flushed + triad.bytes_compacted_written;
    assert!(
        triad_bg < baseline_bg,
        "TRIAD should write fewer background bytes ({triad_bg}) than the baseline ({baseline_bg})"
    );
    assert!(triad.bytes_flushed < baseline.bytes_flushed);
}

#[test]
fn config_labels_cover_the_breakdown_matrix() {
    assert_eq!(TriadConfig::baseline().label(), "RocksDB");
    assert_eq!(TriadConfig::all_enabled().label(), "TRIAD");
    assert_eq!(TriadConfig::mem_only().label(), "TRIAD-MEM");
    assert_eq!(TriadConfig::disk_only().label(), "TRIAD-DISK");
    assert_eq!(TriadConfig::log_only().label(), "TRIAD-LOG");
}

#[test]
fn pinned_scans_keep_cl_backing_logs_alive_until_dropped() {
    let (db, dir) = open_small("cl-pinned-scan", |options| {
        common::single_shard(options); // counts .log/.clidx files of one shard
        options.triad = TriadConfig::log_only();
        options.l0_compaction_trigger = 2;
    });
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    assert!(
        common::disk_files(&dir).iter().any(|n| n.ends_with(".clidx")),
        "TRIAD-LOG flush must produce a CL-SSTable"
    );

    // The scan pins the version holding the CL-SSTable — and therefore its
    // backing commit log — before compaction retires both.
    let mut scan = db.scan().unwrap();
    let (first_key, first_value) = scan.next().unwrap().unwrap();
    assert_eq!(first_key, key_for(0));
    assert_eq!(first_value, value_for(0, 1));

    // A second round triggers the L0→L1 compaction that rewrites the CL-SSTables
    // into regular block tables, retiring the indexes and their backing logs.
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 2)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    assert!(db.stats().compaction_count >= 1);

    // GC must hold the pinned snapshot's files back: the CL index and at least
    // one retired commit log besides the active WAL are still on disk.
    db.collect_garbage();
    let files = common::disk_files(&dir);
    assert!(
        files.iter().any(|n| n.ends_with(".clidx")),
        "pinned CL-SSTable index deleted under a live scan: {files:?}"
    );
    assert!(
        files.iter().filter(|n| n.ends_with(".log")).count() >= 2,
        "pinned backing log deleted under a live scan: {files:?}"
    );

    // The scan still reads its round-1 snapshot through the backing log, without
    // a single missing-file error, even though the current version moved on.
    let mut seen = 1u64;
    for entry in scan.by_ref() {
        let (key, value) = entry.expect("pinned scan must never surface an error");
        assert_eq!(key, key_for(seen), "scan order");
        assert_eq!(value, value_for(seen, 1), "scan must observe its snapshot");
        seen += 1;
    }
    assert_eq!(seen, 300, "the snapshot holds every round-1 entry");

    // Dropping the scan releases the pin; now the retired files can go.
    drop(scan);
    common::assert_disk_matches_live_set(&db, &dir);
    let files = common::disk_files(&dir);
    assert!(files.iter().all(|n| !n.ends_with(".clidx")), "CL index leaked: {files:?}");
    assert_eq!(
        files.iter().filter(|n| n.ends_with(".log")).count(),
        1,
        "only the active WAL log may remain: {files:?}"
    );
    // And the data the current version serves is round 2.
    for i in (0..300u64).step_by(37) {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 2)));
    }
    db.close().unwrap();
}

#[test]
fn a_corrupt_cl_record_fails_the_compaction_and_installs_nothing() {
    let (db, dir) = open_small("cl-corrupt-compaction", |options| {
        single_shard(options); // one shard's L0 and commit logs
        options.triad = TriadConfig::log_only();
        options.l0_compaction_trigger = 2;
    });
    for i in 0..100u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let cl_tables = || -> Vec<String> {
        db.expected_live_files().into_iter().filter(|name| name.ends_with(".clidx")).collect()
    };
    assert_eq!(cl_tables().len(), 1, "the flush wrote one CL-SSTable");
    // Flip a byte inside key 37's value, in the log that backs the table.
    let needle = b"value-37-1-";
    let mut flipped = 0;
    for name in common::disk_files(&dir).iter().filter(|name| name.ends_with(".log")) {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        if let Some(at) = bytes.windows(needle.len()).position(|window| window == needle) {
            bytes[at + needle.len() + 20] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            flipped += 1;
        }
    }
    assert_eq!(flipped, 1, "one log holds key 37's record");

    // A second CL-SSTable of other keys reaches the trigger; the compaction
    // of both reads key 37's record and fails on every attempt.
    for i in 1_000..1_100u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let inputs = cl_tables();
    assert_eq!(inputs.len(), 2, "two CL-SSTables: {inputs:?}");
    let error = db.wait_for_compactions().unwrap_err();
    assert!(error.is_corruption(), "{error}");
    assert!(db.stats().background_errors >= 1);
    assert_eq!(db.stats().compaction_count, 0);
    assert_eq!(db.files_per_level()[0], 2, "both inputs stay on L0");
    assert_eq!(cl_tables(), inputs, "the manifest still lists the inputs");
    // No output of the failed attempts is left on disk.
    common::assert_disk_matches_live_set(&db, &dir);
    assert!(db.get(key_for(37)).unwrap_err().is_corruption());
    for i in (0..100u64).filter(|&i| i != 37).chain(1_000..1_100) {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i}");
    }
    db.close().unwrap();
}
