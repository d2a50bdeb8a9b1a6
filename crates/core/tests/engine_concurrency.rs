//! Concurrent access: multiple writers and readers sharing one database.

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use common::{key_for, open_small};
use triad_core::{Db, HotColdPolicy, SyncMode, TriadConfig, WriteBatch, WriteOptions};

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
    // Seed the key space before the readers start. Keys are overwritten but
    // never deleted, so every `get` must find its key: a read path bounded
    // by a just-loaded seqno would miss keys whose overwrite races the probe.
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
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let key = key_for(reads % 500);
                let value = db.get(&key).unwrap().expect("a seeded key must always be found");
                // Values are always one of the formats writers produce.
                assert!(value.starts_with(b"seed-value") || value.starts_with(b"writer-"));
                reads += 1;
            }
            reads
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_reads = 0;
    for handle in reader_handles {
        total_reads += handle.join().unwrap();
    }
    assert!(total_reads > 0, "readers should have run alongside the writers");
    // All 500 keys exist and carry a valid value.
    for i in 0..500u64 {
        assert!(db.get(key_for(i)).unwrap().is_some());
    }
    db.close().unwrap();
}

/// A live get read-locks the active memtable's handle, then the sealed list,
/// and probes neither before holding both. A TRIAD-MEM flush writes its hot
/// entries back into the active memtable and only then unlinks the sealed
/// memtable, so a get that probed the active memtable before it held the
/// sealed list could miss a hot key on both sides of one flush, and find it
/// on disk neither: hot entries are not flushed. One writer updates a small
/// hot set and forces a flush, over and over, so every flush writes the whole
/// set back, and the active memtable is empty from each rotation to its
/// write-back. Readers outnumber the cores, so the scheduler parks some of
/// them mid-get for longer than a flush takes. They get the hot set
/// throughout, and no get may come back empty or with another key's value.
#[test]
fn gets_never_miss_hot_keys_a_flush_writes_back() {
    const HOT: u64 = 8;
    const READERS: usize = 8;
    const ROUNDS: u64 = 150;
    let (db, dir) = open_small("hot-write-back-gets", |options| {
        options.memtable_size = 16 * 1024;
        options.triad = TriadConfig::mem_only();
        // Every key a flush sees is hot, so the hot set never reaches disk.
        options.triad.hot_key_policy = HotColdPolicy::TopCount(HOT as usize);
    });
    let db = Arc::new(db);
    let hot_value = |h: u64, round: u64| format!("hot-{h}-r{round}").into_bytes();
    for h in 0..HOT {
        db.put(key_for(h), hot_value(h, 0)).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
            thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let h = reads % HOT;
                    let value = db.get(key_for(h)).unwrap();
                    let value = value.unwrap_or_else(|| panic!("hot key {h} missed"));
                    let prefix = format!("hot-{h}-r");
                    assert!(value.starts_with(prefix.as_bytes()), "hot key {h} read another value");
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    for round in 1..=ROUNDS {
        for h in 0..HOT {
            db.put(key_for(h), hot_value(h, round)).unwrap();
        }
        db.flush().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for handle in readers {
        assert!(handle.join().unwrap() > 0, "readers should have run alongside the writer");
    }
    let stats = db.stats();
    assert!(stats.hot_entries_retained >= ROUNDS * HOT, "too few write-backs: {stats:?}");
    assert_eq!(stats.entries_flushed, 0, "the hot set reached disk: {stats:?}");
    for h in 0..HOT {
        assert_eq!(db.get(key_for(h)).unwrap(), Some(hot_value(h, ROUNDS)));
    }
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The core commit contract, audited end to end: N threads interleave
/// multi-op batches; (a) every acknowledged batch owns a contiguous seqno range,
/// the ranges are globally dense (no gaps, no duplicates) and per-thread ordered;
/// (b) a reopened database recovers every acknowledged write. Run under
/// `NoSync` and `SyncEveryWrite`; under both every batch is its own commit
/// group, and under `SyncEveryWrite` the sync books balance.
#[test]
fn group_commit_seqnos_are_dense_ordered_and_recoverable() {
    seqnos_are_dense_ordered_and_recoverable("nosync-seqnos", SyncMode::NoSync);
    seqnos_are_dense_ordered_and_recoverable("synced-seqnos", SyncMode::SyncEveryWrite);
}

fn seqnos_are_dense_ordered_and_recoverable(name: &str, sync_mode: SyncMode) {
    let threads = 8u64;
    let batches_per_thread = 250u64;
    let (db, dir) = open_small(name, |options| {
        common::single_shard(options); // seqno density is a per-shard property
        options.l0_compaction_trigger = 2;
        options.sync_mode = sync_mode;
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
            let mut expected: BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
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
    let mut expected_values: BTreeMap<Vec<u8>, Vec<u8>> = Default::default();
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
    let batches = threads * batches_per_thread;
    assert_eq!(stats.user_writes, total_ops);
    assert_eq!(stats.write_group_batches, batches, "every acknowledged batch rode in a group");
    assert_eq!(stats.write_groups, batches, "every batch is its own commit group");
    if sync_mode == SyncMode::SyncEveryWrite {
        assert_eq!(
            stats.wal_syncs + stats.wal_syncs_overlapped,
            batches,
            "sync accounting must balance (syncs={}, overlapped={})",
            stats.wal_syncs,
            stats.wal_syncs_overlapped
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

/// Every writer appends its own batch as its own commit group, and concurrent
/// writers serialize on the append lock. So under `NoSync` every group carries
/// exactly one batch, however the writers interleave — and every acknowledged
/// put is still readable.
#[test]
fn nosync_writers_never_queue_and_every_acknowledged_put_reads_back() {
    let threads = 4u64;
    let puts_per_thread = 2_000u64;
    let (db, _dir) = open_small("nosync-no-queue", |options| {
        common::single_shard(options); // one append lock for all four writers
        options.sync_mode = SyncMode::NoSync;
        options.l0_compaction_trigger = 2;
    });
    let db = Arc::new(db);
    let mut handles = Vec::new();
    for t in 0..threads {
        let db = Arc::clone(&db);
        handles.push(thread::spawn(move || {
            let mut acked = BTreeMap::new();
            for i in 0..puts_per_thread {
                let (key, value) = (key_for(t * 1_000_000 + i % 300), format!("t{t}-v{i}"));
                db.put(&key, value.as_bytes()).unwrap();
                acked.insert(key, value.into_bytes());
            }
            acked
        }));
    }
    let acked: Vec<_> = handles.into_iter().map(|handle| handle.join().unwrap()).collect();

    let stats = db.stats();
    let batches = threads * puts_per_thread;
    assert_eq!(stats.write_group_batches, batches, "every put rode in a commit group");
    assert_eq!(stats.write_groups, batches, "no writer's batch rode in another's group");
    for (key, value) in acked.iter().flatten() {
        assert_eq!(db.get(key).unwrap().as_ref(), Some(value), "acknowledged put lost");
    }
    db.close().unwrap();
}

/// Runs rounds of `threads` writers, `batches_per_thread` single puts each over
/// per-thread key slices, until a group has retired on a neighbour's fsync
/// (bounded: overlap needs two groups racing through append↔fsync at the right
/// moment). Returns the number of rounds and every key's last acknowledged
/// value.
fn write_until_an_fsync_overlaps(
    db: &Arc<Db>,
    threads: u64,
    batches_per_thread: u64,
) -> (u64, BTreeMap<Vec<u8>, Vec<u8>>) {
    let mut acked = BTreeMap::new();
    for round in 1..=30u64 {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let db = Arc::clone(db);
                thread::spawn(move || {
                    let mut acked = BTreeMap::new();
                    for i in 0..batches_per_thread {
                        let (key, value) = (key_for(t * 1_000 + i % 64), format!("r{round}-{i}"));
                        db.put(&key, value.as_bytes()).unwrap();
                        acked.insert(key, value.into_bytes());
                    }
                    acked
                })
            })
            .collect();
        for handle in handles {
            acked.extend(handle.join().unwrap());
        }
        if db.stats().wal_syncs_overlapped >= 1 || round == 30 {
            return (round, acked);
        }
    }
    unreachable!("the last round returns")
}

/// The pipelined commit's acceptance contract, observed end to end: with many
/// synced writers, group N+1 must append while group N's fsync is in flight
/// (pipeline depth > 1), at least one group must retire on a neighbour's fsync
/// without issuing its own (`wal_syncs_overlapped`), fsyncs must amortize
/// below one per batch, and publication must stay in group order.
#[test]
fn pipelined_sync_writers_overlap_fsyncs_and_publish_in_order() {
    let (threads, batches_per_thread) = (8u64, 60u64);
    let (db, _dir) = open_small("pipelined-overlap", |options| {
        common::single_shard(options); // fsync counting assumes one commit log
        options.sync_mode = SyncMode::SyncEveryWrite;
        // Keep rotations out of the run so every fsync belongs to a commit group.
        options.memtable_size = 64 * 1024 * 1024;
        options.max_log_size = 64 * 1024 * 1024;
    });
    let db = Arc::new(db);
    let (rounds, _) = write_until_an_fsync_overlaps(&db, threads, batches_per_thread);

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
    assert!(
        stats.fsyncs_per_grouped_batch() < 1.0,
        "fsyncs ({}) must amortize across the acknowledged batches ({total_batches})",
        stats.wal_syncs
    );
    // Publication stayed in group order: after quiescing, the published seqno
    // covers exactly every acknowledged operation.
    assert_eq!(db.last_seqno(), total_batches, "last_seqno must cover all acked ops in order");
    db.close().unwrap();
}

/// A synced writer never queues behind another: it appends its own batch at
/// once, even while an fsync is in flight, and parks only on the durability
/// watermark. So under `SyncEveryWrite` every group is one batch, each batch
/// either drove an fsync or rode a neighbour's, fsyncs still amortize, and
/// acknowledged ⇒ fsynced: every acknowledged value survives a reopen.
#[test]
fn synced_writers_append_their_own_batches_and_share_fsyncs() {
    let (threads, batches_per_thread) = (8u64, 60u64);
    let (db, dir) = open_small("synced-own-batches", |options| {
        common::single_shard(options); // fsync counting assumes one commit log
        options.sync_mode = SyncMode::SyncEveryWrite;
        options.memtable_size = 64 * 1024 * 1024;
        options.max_log_size = 64 * 1024 * 1024;
    });
    let options = db.options().clone();
    let db = Arc::new(db);
    let (rounds, acked) = write_until_an_fsync_overlaps(&db, threads, batches_per_thread);

    let stats = db.stats();
    let batches = threads * batches_per_thread * rounds;
    assert_eq!(stats.write_group_batches, batches);
    assert_eq!(stats.write_groups, stats.write_group_batches, "every group is one batch");
    assert!(stats.wal_syncs < batches, "fsyncs ({}) must amortize", stats.wal_syncs);
    assert!(stats.wal_syncs_overlapped >= 1, "no group rode a neighbour's fsync");
    assert_eq!(
        stats.wal_syncs + stats.wal_syncs_overlapped,
        batches,
        "each batch drove an fsync or rode one (syncs={}, overlapped={})",
        stats.wal_syncs,
        stats.wal_syncs_overlapped
    );

    db.close().unwrap();
    drop(db);
    let db = Db::open(&dir, options).unwrap();
    for (key, value) in &acked {
        assert_eq!(db.get(key).unwrap().as_ref(), Some(value), "acked key lost across restart");
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
        // (and therefore retires files) while the scans are running. Only a
        // full memtable or the writers' explicit flushes rotate, and neither
        // is ever skipped.
        options.triad.overlap_ratio_threshold = 0.0;
        options.max_log_size = 64 << 20;
    });
    let db = Arc::new(db);
    for i in 0..400u64 {
        db.put(key_for(i), b"seed-value").unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));

    // Writers churn the key space and flush every 1 000 puts, forcing flushes
    // and compactions at any shard count while scans and point reads run
    // against pinned (and quickly stale) versions.
    let mut writers = Vec::new();
    for t in 0..2u64 {
        let db = Arc::clone(&db);
        writers.push(thread::spawn(move || {
            for i in 0..4_000u64 {
                let key = key_for((t * 31 + i * 7) % 400);
                db.put(&key, format!("writer-{t}-{i}-{}", "p".repeat(80)).into_bytes()).unwrap();
                if i % 1_000 == 999 {
                    db.flush().unwrap();
                }
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
    assert_eq!(stats.small_flush_skips, 0, "no rotation may take the small-flush path");
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

/// The value a hot-set writer puts: its writer, key and version, padded.
fn hot_value(writer: u64, key: u64, version: u64) -> Vec<u8> {
    format!("w{writer}-k{key}-v{version:08}-{}", "h".repeat(80)).into_bytes()
}

/// The version encoded in a [`hot_value`].
fn hot_version(value: &[u8]) -> u64 {
    let text = std::str::from_utf8(value).unwrap();
    text.split('-').nth(2).unwrap()[1..].parse().unwrap()
}

/// Three writers on a hot set small enough that every rotation is a
/// TRIAD-MEM small-flush skip, with a reader polling every key and a
/// snapshot held open across the churn. The skip relocates the memtable
/// under the commit gate and fsyncs the new log and retires the old one after
/// it, while the other writers append to the new log. No reader may see a
/// key's version go backwards, the snapshot keeps its cut, and every last
/// acknowledged version survives a reopen.
#[test]
fn small_flush_skips_under_concurrent_writers_keep_versions_monotonic_and_durable() {
    const WRITERS: u64 = 3;
    const KEYS: u64 = 5;
    const VERSIONS: u64 = 600;
    let dir = common::temp_dir("skip-churn");
    let mut options = common::small_options();
    options.memtable_size = 1024 * 1024;
    options.max_log_size = 32 * 1024;
    options.triad = TriadConfig::mem_only();
    let key = |writer: u64, k: u64| key_for(writer * 100 + k);
    let db = Arc::new(Db::open(&dir, options.clone()).unwrap());
    for writer in 0..WRITERS {
        for k in 0..KEYS {
            db.put(key(writer, k), hot_value(writer, k, 0)).unwrap();
        }
    }
    let snapshot = db.snapshot();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let (db, stop) = (Arc::clone(&db), Arc::clone(&stop));
        thread::spawn(move || {
            let mut seen = BTreeMap::new();
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for writer in 0..WRITERS {
                    for k in 0..KEYS {
                        let value = db.get(key(writer, k)).unwrap().expect("hot key vanished");
                        let version = hot_version(&value);
                        let last = seen.entry((writer, k)).or_insert(0);
                        assert!(version >= *last, "key {writer}/{k} went from {last} to {version}");
                        *last = version;
                        reads += 1;
                    }
                }
            }
            reads
        })
    };
    let writers: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                for version in 1..=VERSIONS {
                    for k in 0..KEYS {
                        db.put(key(writer, k), hot_value(writer, k, version)).unwrap();
                    }
                }
            })
        })
        .collect();
    for handle in writers {
        handle.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    assert!(reader.join().unwrap() > 0);

    let stats = db.stats();
    assert!(stats.small_flush_skips >= 3, "expected skips, got {stats:?}");
    assert_eq!(stats.flush_count, 0, "every rotation must be a skip");
    for writer in 0..WRITERS {
        for k in 0..KEYS {
            let value = snapshot.get(key(writer, k)).unwrap().unwrap();
            assert_eq!(value, hot_value(writer, k, 0), "the snapshot lost its cut");
        }
    }
    drop(snapshot);
    common::assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
    drop(db);

    let db = Db::open(&dir, options).unwrap();
    for writer in 0..WRITERS {
        for k in 0..KEYS {
            let value = db.get(key(writer, k)).unwrap();
            assert_eq!(value, Some(hot_value(writer, k, VERSIONS)), "key {writer}/{k}");
        }
    }
    common::assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
