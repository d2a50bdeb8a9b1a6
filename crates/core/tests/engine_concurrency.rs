//! Concurrent access: multiple writers and readers sharing one database.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use common::{key_for, open_small};
use triad_core::{Db, SyncMode, TriadConfig, WriteBatch, WriteOptions};

fn concurrent_workload(db: Arc<Db>, threads: u64, ops_per_thread: u64) {
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            // Each thread owns a disjoint slice of the key space so the final value of
            // every key is deterministic.
            for i in 0..ops_per_thread {
                let key_index = t * 1_000_000 + (i % 200);
                let key = key_for(key_index);
                let value = format!("t{t}-v{i}-{}", "p".repeat(64));
                db.put(&key, value.as_bytes()).unwrap();
                if i % 7 == 0 {
                    // Read-your-writes within a thread.
                    let got = db.get(&key).unwrap().expect("just-written key must exist");
                    assert!(got.starts_with(format!("t{t}-").as_bytes()));
                }
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
}

#[test]
fn concurrent_writers_with_baseline_config() {
    let (db, _dir) = open_small("concurrent-baseline", |options| {
        options.l0_compaction_trigger = 2;
    });
    let db = Arc::new(db);
    concurrent_workload(Arc::clone(&db), 4, 2_000);
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    // Every key's final value is the last write of its owning thread.
    for t in 0..4u64 {
        for k in 0..200u64 {
            let key = key_for(t * 1_000_000 + k);
            let value = db.get(&key).unwrap().expect("key must exist");
            assert!(value.starts_with(format!("t{t}-").as_bytes()));
        }
    }
    db.close().unwrap();
}

#[test]
fn concurrent_writers_with_full_triad_config() {
    let (db, _dir) = open_small("concurrent-triad", |options| {
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::all_enabled();
    });
    let db = Arc::new(db);
    concurrent_workload(Arc::clone(&db), 4, 2_000);
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    let total_keys = db.scan().unwrap().count();
    assert_eq!(total_keys, 4 * 200, "each thread owns 200 distinct keys");
    db.close().unwrap();
}

#[test]
fn readers_run_concurrently_with_writers_and_background_work() {
    let (db, _dir) = open_small("readers-vs-writers", |options| {
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::all_enabled();
    });
    let db = Arc::new(db);
    // Seed the key space so readers always find something.
    for i in 0..500u64 {
        db.put(key_for(i), b"seed-value").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for t in 0..2u64 {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            for i in 0..5_000u64 {
                let key = key_for((t * 7 + i * 13) % 500);
                db.put(&key, format!("writer-{t}-{i}").into_bytes()).unwrap();
            }
        }));
    }
    let mut reader_handles = Vec::new();
    for _ in 0..3 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        reader_handles.push(thread::spawn(move || {
            let mut hits = 0u64;
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = key_for(i % 500);
                if let Some(value) = db.get(&key).unwrap() {
                    // Values are always one of the formats writers produce.
                    assert!(value.starts_with(b"seed-value") || value.starts_with(b"writer-"));
                    hits += 1;
                }
                i += 1;
            }
            hits
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_hits = 0;
    for handle in reader_handles {
        total_hits += handle.join().unwrap();
    }
    assert!(total_hits > 0, "readers should observe live data");
    // All 500 keys exist and carry a valid value.
    for i in 0..500u64 {
        assert!(db.get(key_for(i)).unwrap().is_some());
    }
    db.close().unwrap();
}

/// The core group-commit contract, audited end to end: N threads interleave
/// multi-op batches; (a) every acknowledged batch owns a contiguous seqno range,
/// the ranges are globally dense (no gaps, no duplicates) and per-thread ordered;
/// (b) a reopened database recovers every acknowledged write. Run at the default
/// group caps and *ungrouped* (`max_group_batches = 1` under `SyncEveryWrite`,
/// the write-scaling bench's in-run baseline row), where additionally every
/// group carries exactly one batch and the sync books still balance.
#[test]
fn group_commit_seqnos_are_dense_ordered_and_recoverable() {
    seqnos_are_dense_ordered_and_recoverable("group-seqnos", false);
    seqnos_are_dense_ordered_and_recoverable("ungrouped-seqnos", true);
}

fn seqnos_are_dense_ordered_and_recoverable(name: &str, ungrouped: bool) {
    let threads = 8u64;
    let batches_per_thread = 250u64;
    let (db, dir) = open_small(name, |options| {
        common::single_shard(options); // seqno density is a per-shard property
        options.l0_compaction_trigger = 2;
        if ungrouped {
            options.group_commit.max_group_batches = 1;
            options.sync_mode = SyncMode::SyncEveryWrite;
        }
    });
    let options = db.options().clone();
    let db = Arc::new(db);

    // Each thread issues batches of varying size over its own key slice and
    // records (last_seqno, batch_len, final value per key) for every Ok.
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            let mut acked: Vec<(u64, u64)> = Vec::new();
            let mut expected: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
            for i in 0..batches_per_thread {
                let len = 1 + (t + i) % 4;
                let mut batch = WriteBatch::new();
                for op in 0..len {
                    let key = key_for(t * 1_000_000 + (i * 4 + op) % 500);
                    let value = format!("t{t}-b{i}-o{op}");
                    batch.put(key.clone(), value.clone().into_bytes());
                    expected.insert(key, value.into_bytes());
                }
                let end = db.write_committed(batch, WriteOptions::default()).unwrap();
                acked.push((end, len));
            }
            (acked, expected)
        }));
    }
    let mut all_ranges: Vec<(u64, u64)> = Vec::new();
    let mut expected_values: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
    for handle in handles {
        let (acked, expected) = handle.join().unwrap();
        // (a) per-thread ordering: a thread's later batch commits with a larger
        // sequence number than its earlier one.
        for window in acked.windows(2) {
            assert!(
                window[1].0 > window[0].0,
                "per-thread seqnos must be monotonically increasing: {window:?}"
            );
        }
        all_ranges.extend(acked.iter().copied());
        // Threads own disjoint key slices and write them in program order, so
        // each thread's last value per key is the globally expected one.
        expected_values.extend(expected);
    }
    // (a) global density: the ranges [end-len+1, end] partition 1..=total exactly.
    let total_ops: u64 = all_ranges.iter().map(|(_, len)| len).sum();
    all_ranges.sort_unstable();
    let mut next_expected = 1u64;
    for (end, len) in &all_ranges {
        let first = end + 1 - len;
        assert_eq!(
            first, next_expected,
            "seqno ranges must be contiguous and non-overlapping across the whole run"
        );
        next_expected = end + 1;
    }
    assert_eq!(next_expected - 1, total_ops, "every op consumed exactly one seqno");
    assert_eq!(db.last_seqno(), total_ops, "published last_seqno covers every acknowledged op");

    let stats = db.stats();
    assert_eq!(stats.user_writes, total_ops);
    assert_eq!(
        stats.write_group_batches,
        threads * batches_per_thread,
        "every acknowledged batch rode in exactly one commit group"
    );
    assert!(stats.write_groups >= 1);
    assert!(stats.write_group_max_size >= 1);
    if ungrouped {
        let batches = threads * batches_per_thread;
        assert_eq!(stats.write_group_max_size, 1, "a group cap of 1 admits no follower");
        assert_eq!(stats.write_groups, batches, "every batch is its own commit group");
        assert_eq!(
            stats.wal_syncs + stats.wal_syncs_amortized,
            batches,
            "sync accounting must balance (syncs={}, amortized={})",
            stats.wal_syncs,
            stats.wal_syncs_amortized
        );
    }

    // (b) every acknowledged write survives a reopen.
    db.close().unwrap();
    drop(db);
    let db = Db::open(&dir, options).unwrap();
    for (key, value) in &expected_values {
        assert_eq!(
            db.get(key).unwrap().as_ref(),
            Some(value),
            "acknowledged key {:?} lost or stale across restart",
            String::from_utf8_lossy(key)
        );
    }
    let recovered = db.last_seqno();
    assert!(
        recovered >= total_ops,
        "recovered last_seqno {recovered} must cover all {total_ops} acknowledged ops"
    );
    db.close().unwrap();
}

/// Under a synced concurrent workload, group commit must acknowledge writes with
/// strictly fewer fsyncs than batches: one fsync covers the whole group, and the
/// amortization shows up in the dedicated counters.
#[test]
fn grouped_writers_amortize_fsyncs_under_sync_every_write() {
    let threads = 8u64;
    let batches_per_thread = 200u64;
    let (db, _dir) = open_small("group-fsync-amortize", |options| {
        options.sync_mode = SyncMode::SyncEveryWrite;
        // Keep rotations out of the run so every fsync belongs to a commit group.
        options.memtable_size = 64 * 1024 * 1024;
        options.max_log_size = 64 * 1024 * 1024;
    });
    let db = Arc::new(db);
    // Whether a group with more than one batch forms is up to thread timing; on
    // a host where an fsync is nearly free the first round could conceivably
    // group nothing. Re-run the workload (bounded) until grouping is observed —
    // the accounting assertions below then hold deterministically.
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let mut handles = Vec::new();
        for t in 0..threads {
            let db = Arc::clone(&db);
            handles.push(thread::spawn(move || {
                for i in 0..batches_per_thread {
                    db.put(key_for(t * 1_000 + i % 100), format!("v{i}").into_bytes()).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        if db.stats().write_group_max_size >= 2 || rounds == 5 {
            break;
        }
    }
    let stats = db.stats();
    let total_batches = threads * batches_per_thread * rounds;
    assert_eq!(stats.write_group_batches, total_batches);
    assert!(
        stats.wal_syncs < total_batches,
        "group commit must issue strictly fewer fsyncs ({}) than acknowledged batches ({})",
        stats.wal_syncs,
        total_batches
    );
    // With SyncEveryWrite every group syncs exactly once, so the books balance:
    // syncs issued + syncs amortized away = batches acknowledged.
    assert_eq!(
        stats.wal_syncs + stats.wal_syncs_amortized,
        total_batches,
        "sync accounting must balance (syncs={}, amortized={})",
        stats.wal_syncs,
        stats.wal_syncs_amortized
    );
    assert!(
        stats.write_group_max_size >= 2,
        "at least one group must have carried more than one batch"
    );
    assert!(stats.fsyncs_per_grouped_batch() < 1.0);
    db.close().unwrap();
}

/// The pipelined commit's acceptance contract, observed end to end: with small
/// commit groups and many synced writers, group N+1 must append while group N's
/// fsync is in flight (pipeline depth > 1) and at least one group must retire on
/// a neighbour's fsync without issuing its own (`wal_syncs_overlapped`). The
/// sync-accounting books must still balance, publication must stay in group
/// order, and every acknowledged write must survive a reopen.
#[test]
fn pipelined_sync_writers_overlap_fsyncs_and_publish_in_order() {
    let threads = 8u64;
    let batches_per_thread = 60u64;
    let (db, dir) = open_small("pipelined-overlap", |options| {
        common::single_shard(options); // fsync counting assumes one commit log
        options.sync_mode = SyncMode::SyncEveryWrite;
        // Small groups force several groups into flight at once instead of one
        // group absorbing every writer; rotations stay out of the run.
        options.group_commit.max_group_batches = 2;
        options.memtable_size = 64 * 1024 * 1024;
        options.max_log_size = 64 * 1024 * 1024;
    });
    let options = db.options().clone();
    let db = Arc::new(db);

    // Overlap needs two groups racing through append↔fsync at the right moment;
    // repeat the workload (bounded) until the counter proves it happened.
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let mut handles = Vec::new();
        for t in 0..threads {
            let db = Arc::clone(&db);
            handles.push(thread::spawn(move || {
                for i in 0..batches_per_thread {
                    db.put(key_for(t * 1_000 + i % 64), format!("r{i}").into_bytes()).unwrap();
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        if db.stats().wal_syncs_overlapped >= 1 || rounds == 30 {
            break;
        }
    }
    let stats = db.stats();
    let total_batches = threads * batches_per_thread * rounds;
    assert_eq!(stats.write_group_batches, total_batches);
    assert!(
        stats.wal_syncs_overlapped >= 1,
        "at least one group must have retired on a neighbour's fsync \
         (syncs={}, overlapped={}, rounds={rounds})",
        stats.wal_syncs,
        stats.wal_syncs_overlapped
    );
    assert!(
        stats.wal_pipeline_max_depth >= 2,
        "overlap requires at least two groups in flight, saw depth {}",
        stats.wal_pipeline_max_depth
    );
    assert!(stats.wal_syncs < total_batches, "fsyncs must amortize across groups");
    // Every sync-required batch either triggered the group fsync or rode one:
    // syncs issued + syncs amortized away = batches acknowledged.
    assert_eq!(
        stats.wal_syncs + stats.wal_syncs_amortized,
        total_batches,
        "sync accounting must balance (syncs={}, amortized={}, overlapped={})",
        stats.wal_syncs,
        stats.wal_syncs_amortized,
        stats.wal_syncs_overlapped
    );
    // Publication stayed in group order: after quiescing, the published seqno
    // covers exactly every acknowledged operation.
    assert_eq!(db.last_seqno(), total_batches, "last_seqno must cover all acked ops in order");

    // Acknowledged ⇒ fsynced: every key survives a reopen.
    db.close().unwrap();
    drop(db);
    let db = Db::open(&dir, options).unwrap();
    for t in 0..threads {
        for k in 0..64u64.min(batches_per_thread) {
            assert!(
                db.get(key_for(t * 1_000 + k)).unwrap().is_some(),
                "acked key {t}/{k} lost across restart"
            );
        }
    }
    db.close().unwrap();
}

#[test]
fn close_during_heavy_write_traffic_is_clean() {
    let (db, _dir) = open_small("close-race", |options| {
        options.triad = TriadConfig::all_enabled();
        options.l0_compaction_trigger = 2;
    });
    let db = Arc::new(db);
    let writer = {
        let db = Arc::clone(&db);
        thread::spawn(move || {
            let mut completed = 0u64;
            for i in 0..100_000u64 {
                if db.put(key_for(i % 300), format!("v{i}").into_bytes()).is_err() {
                    break;
                }
                completed += 1;
            }
            completed
        })
    };
    thread::sleep(std::time::Duration::from_millis(100));
    db.close().unwrap();
    let completed = writer.join().unwrap();
    assert!(completed > 0, "some writes must have completed before shutdown");
}

#[test]
fn scans_under_compaction_churn_never_hit_missing_files() {
    let (db, dir) = open_small("scan-under-compaction", |options| {
        options.l0_compaction_trigger = 2;
        options.triad = TriadConfig::all_enabled();
        // Never defer L0 compaction and never absorb a rotation with the
        // small-flush rule, so the churn deterministically flushes and compacts
        // (and therefore retires files) while the scans are running.
        options.triad.overlap_ratio_threshold = 0.0;
        options.triad.flush_skip_threshold_bytes = 0;
    });
    let db = Arc::new(db);
    for i in 0..400u64 {
        db.put(key_for(i), b"seed-value").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));

    // Writers churn the key space hard enough to force flushes and compactions
    // while scans and point reads run against pinned (and quickly stale) versions.
    let mut writers = Vec::new();
    for t in 0..2u64 {
        let db = Arc::clone(&db);
        writers.push(thread::spawn(move || {
            for i in 0..4_000u64 {
                let key = key_for((t * 31 + i * 7) % 400);
                db.put(&key, format!("writer-{t}-{i}-{}", "p".repeat(80)).into_bytes()).unwrap();
            }
        }));
    }
    let mut scanners = Vec::new();
    for s in 0..2u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        scanners.push(thread::spawn(move || {
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // With version-pinned GC a scan must never surface an error: every
                // file of its snapshot outlives the iterator, so a NotFound would
                // be real corruption.
                let mut entries = 0u64;
                for result in db
                    .scan()
                    .unwrap_or_else(|e| panic!("scanner {s}: building the scan failed: {e}"))
                {
                    result.unwrap_or_else(|e| panic!("scanner {s}: scan entry failed: {e}"));
                    entries += 1;
                }
                assert!(entries >= 400, "scans must see every seeded key, got {entries}");
                scans += 1;
            }
            scans
        }));
    }
    let reader = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let got = db.get(key_for(i % 400)).unwrap().expect("seeded key must exist");
                assert!(got.starts_with(b"seed-value") || got.starts_with(b"writer-"));
                i += 1;
            }
        })
    };
    for handle in writers {
        handle.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_scans = 0;
    for handle in scanners {
        total_scans += handle.join().unwrap();
    }
    reader.join().unwrap();
    assert!(total_scans > 0, "scanners should have completed at least one scan");

    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    let stats = db.stats();
    assert!(stats.compaction_count >= 1, "the churn must have compacted");
    assert!(stats.gc_files_deleted >= 1, "compactions must have retired table files");
    assert_eq!(stats.gc_delete_failures, 0, "no deletion may fail on a healthy disk");
    // With all readers gone and GC converged, the directory holds exactly the live
    // version's file set: nothing leaked, nothing deleted prematurely.
    common::assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
}

#[test]
fn table_cache_never_resurrects_files_deleted_by_gc() {
    let (db, dir) = open_small("cache-resurrection", |options| {
        common::single_shard(options); // asserts on root-relative table file names
        options.l0_compaction_trigger = 2;
    });
    let db = Arc::new(db);
    for i in 0..300u64 {
        db.put(key_for(i), b"seed-value").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    // Readers keep pinning versions (and opening their tables) while compactions
    // retire files underneath them — the exact interleaving that used to let a
    // stale reader re-insert a handle for a just-deleted file.
    let mut readers = Vec::new();
    for _ in 0..3 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                db.get(key_for(i % 300)).unwrap();
                i += 1;
            }
        }));
    }
    for round in 0..6u64 {
        for i in 0..300u64 {
            db.put(key_for(i), format!("round-{round}-{}", "q".repeat(64)).into_bytes()).unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_for_compactions().unwrap();
    stop.store(true, Ordering::Relaxed);
    for handle in readers {
        handle.join().unwrap();
    }
    common::assert_disk_matches_live_set(&db, &dir);
    // Every handle still cached belongs to a live file; a handle for a deleted
    // file would mean eviction raced a stale re-insert.
    let expected = db.expected_live_files();
    for id in db.cached_table_ids() {
        assert!(
            expected.contains(&format!("{id:06}.sst"))
                || expected.contains(&format!("{id:06}.clidx")),
            "cached handle {id} does not correspond to any live file"
        );
    }
    db.close().unwrap();
}
