//! Durability and recovery: every acknowledged write must survive a reopen.

mod common;

use common::{key_for, temp_dir, value_for};
use triad_common::failpoint::{FailpointAction, FailpointRegistry};
use triad_core::{Db, Options, SyncMode, TriadConfig};

fn reopen(dir: &std::path::Path, options: &Options) -> Db {
    Db::open(dir, options.clone()).unwrap()
}

/// Recovery tests corrupt, truncate and inspect commit logs and manifests at
/// the database root, so they always run single-shard regardless of the
/// `TRIAD_SHARDS` override.
fn small_single_shard() -> Options {
    let mut options = Options::small_for_tests();
    common::single_shard(&mut options);
    options
}

#[test]
fn unflushed_writes_are_recovered_from_the_commit_log() {
    let dir = temp_dir("wal-recovery");
    let options = small_single_shard();
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        for i in 0..50u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        // No flush: everything lives in the memtable + commit log.
        assert_eq!(db.stats().flush_count, 0);
        db.close().unwrap();
    }
    let db = reopen(&dir, &options);
    for i in 0..50u64 {
        assert_eq!(
            db.get(key_for(i)).unwrap(),
            Some(value_for(i, 1)),
            "key {i} lost across restart"
        );
    }
    db.close().unwrap();
}

#[test]
fn flushed_and_compacted_state_is_recovered_from_the_manifest() {
    let dir = temp_dir("manifest-recovery");
    let mut options = small_single_shard();
    options.l0_compaction_trigger = 2;
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        // Flush each version round explicitly: a sealed memtable whose entries are
        // all shadowed by newer writes flushes to nothing, so without these forced
        // flushes the number of L0 files — and whether any compaction triggers —
        // would depend on background-worker scheduling.
        for version in 1..=3u64 {
            for i in 0..500u64 {
                db.put(key_for(i), value_for(i, version)).unwrap();
            }
            db.flush().unwrap();
        }
        for i in (0..500u64).step_by(5) {
            db.delete(key_for(i)).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
        assert!(db.stats().compaction_count >= 1);
        db.close().unwrap();
    }
    let db = reopen(&dir, &options);
    for i in 0..500u64 {
        let got = db.get(key_for(i)).unwrap();
        if i % 5 == 0 {
            assert_eq!(got, None, "deleted key {i} reappeared after restart");
        } else {
            assert_eq!(got, Some(value_for(i, 3)), "key {i} lost its latest version");
        }
    }
    db.close().unwrap();
}

#[test]
fn mixed_flushed_and_unflushed_state_is_recovered() {
    let dir = temp_dir("mixed-recovery");
    let options = small_single_shard();
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        for i in 0..300u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        // Updates after the flush stay in the memtable/commit log only.
        for i in 0..100u64 {
            db.put(key_for(i), value_for(i, 2)).unwrap();
        }
        db.delete(key_for(299)).unwrap();
        db.close().unwrap();
    }
    let db = reopen(&dir, &options);
    for i in 0..100u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 2)));
    }
    for i in 100..299u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
    }
    assert_eq!(db.get(key_for(299)).unwrap(), None);
    db.close().unwrap();
}

#[test]
fn triad_log_cl_sstables_survive_restart() {
    let dir = temp_dir("cl-recovery");
    let mut options = small_single_shard();
    options.triad = TriadConfig::log_only();
    // Keep compaction away so CL-SSTables stay on L0 across the restart.
    options.l0_compaction_trigger = 1_000;
    options.triad.max_l0_files = 1_000;
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        for i in 0..2_000u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        db.close().unwrap();
    }
    // The directory must contain CL index files and their backing logs.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(names.iter().any(|n| n.ends_with(".clidx")), "expected CL index files, got {names:?}");
    assert!(
        names.iter().any(|n| n.ends_with(".log")),
        "expected backing commit logs, got {names:?}"
    );

    let db = reopen(&dir, &options);
    for i in (0..2_000u64).step_by(41) {
        assert_eq!(
            db.get(key_for(i)).unwrap(),
            Some(value_for(i, 1)),
            "key {i} lost after CL restart"
        );
    }
    db.close().unwrap();
}

#[test]
fn full_triad_configuration_recovers_a_skewed_workload() {
    let dir = temp_dir("triad-recovery");
    let mut options = small_single_shard();
    options.triad = TriadConfig::all_enabled();
    options.l0_compaction_trigger = 2;
    let mut expected = std::collections::BTreeMap::new();
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        for version in 0..6_000u64 {
            let key_index = if version % 10 < 9 { version % 20 } else { 20 + version % 400 };
            let key = key_for(key_index);
            let value = value_for(key_index, version);
            db.put(&key, &value).unwrap();
            expected.insert(key, value);
        }
        db.close().unwrap();
    }
    let db = reopen(&dir, &options);
    for (key, value) in &expected {
        assert_eq!(db.get(key).unwrap().as_ref(), Some(value));
    }
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = db.scan().unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(scanned.len(), expected.len());
    db.close().unwrap();
}

#[test]
fn repeated_restarts_preserve_state() {
    let dir = temp_dir("repeated-restarts");
    let mut options = small_single_shard();
    options.triad = TriadConfig::all_enabled();
    options.l0_compaction_trigger = 2;
    let mut expected = std::collections::BTreeMap::new();
    for round in 0..5u64 {
        let db = Db::open(&dir, options.clone()).unwrap();
        // Everything written in previous rounds must still be there.
        for (key, value) in &expected {
            assert_eq!(db.get(key).unwrap().as_ref(), Some(value), "round {round}");
        }
        for i in 0..300u64 {
            let key_index = round * 1_000 + i;
            let key = key_for(key_index);
            let value = value_for(key_index, round);
            db.put(&key, &value).unwrap();
            expected.insert(key, value);
        }
        // Overwrite some old keys too.
        for i in 0..50u64 {
            let key = key_for(i);
            let value = value_for(i, 100 + round);
            db.put(&key, &value).unwrap();
            expected.insert(key, value);
        }
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    for (key, value) in &expected {
        assert_eq!(db.get(key).unwrap().as_ref(), Some(value));
    }
    db.close().unwrap();
}

#[test]
fn injected_flush_failures_do_not_lose_acknowledged_writes() {
    let dir = temp_dir("flush-failpoint");
    let options = small_single_shard();
    let failpoints = FailpointRegistry::new();
    // Every flush attempt fails while the failpoint is armed; data must stay safe in
    // the memtable + commit log.
    failpoints.arm("flush.start", FailpointAction::ReturnError);
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..2_000u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        // Reads still served correctly from memory even though flushing is broken.
        for i in (0..2_000u64).step_by(191) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
        }
        assert!(failpoints.hits("flush.start") > 0, "the failpoint should have been exercised");
        assert_eq!(db.stats().flush_count, 0);
        db.close().unwrap();
    }
    // After a restart without the failpoint, everything is recovered from the logs.
    let db = Db::open(&dir, options).unwrap();
    for i in 0..2_000u64 {
        assert_eq!(
            db.get(key_for(i)).unwrap(),
            Some(value_for(i, 1)),
            "key {i} lost after failed flushes"
        );
    }
    db.close().unwrap();
}

#[test]
fn injected_compaction_failures_do_not_corrupt_data() {
    let dir = temp_dir("compaction-failpoint");
    let mut options = small_single_shard();
    options.l0_compaction_trigger = 2;
    let failpoints = FailpointRegistry::new();
    failpoints.arm("compaction.start", FailpointAction::ErrorTimes(3));
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for version in 1..=3u64 {
            for i in 0..500u64 {
                db.put(key_for(i), value_for(i, version)).unwrap();
            }
        }
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
        for i in (0..500u64).step_by(17) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)));
        }
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    for i in 0..500u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)));
    }
    db.close().unwrap();
}

/// Injects a failure in the exact crash window of the group-commit pipeline —
/// after the group's WAL append (and fsync) but before any memtable insert — and
/// asserts the two invariants the pipeline promises: no acknowledged write is
/// ever lost, and no sequence number is ever issued twice (the failed group's
/// range is consumed, so later acknowledged writes cannot collide with the
/// orphaned records a recovery replay may resurrect).
#[test]
fn crash_between_group_wal_append_and_memtable_insert_loses_nothing_acknowledged() {
    let dir = temp_dir("group-commit-crash-window");
    let mut options = small_single_shard();
    // Acknowledged ⇒ fsynced, so the durability claim below is unconditional.
    options.sync_mode = SyncMode::SyncEveryWrite;
    let failpoints = FailpointRegistry::new();
    let failed_key = key_for(5);
    let acked_after_failure;
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..5u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        let seqno_before_failure = db.last_seqno();
        assert_eq!(seqno_before_failure, 5);

        // The next write dies between its WAL append and its memtable insert.
        failpoints.arm("commit.after_group_wal_append", FailpointAction::ErrorTimes(1));
        let err = db.put(&failed_key, b"never-acknowledged").unwrap_err();
        assert!(
            matches!(err, triad_core::Error::Injected(_)),
            "the injected failure must surface to the (un-acknowledged) writer: {err}"
        );
        assert_eq!(failpoints.hits("commit.after_group_wal_append"), 1);
        // Nothing was published: the failed write is invisible...
        assert_eq!(db.last_seqno(), seqno_before_failure);
        assert_eq!(db.get(&failed_key).unwrap(), None, "a failed write must not be readable");

        // ...and the engine keeps working. Crucially, the failed group consumed
        // its seqno range (its records sit in the durable WAL), so these later
        // acknowledged writes must commit *past* it — no phantom reuse that a
        // replay could resolve in favour of the dead group.
        let mut batch = triad_core::WriteBatch::new();
        for i in 10..20u64 {
            batch.put(key_for(i), value_for(i, 2));
        }
        let end = db.write_committed(batch, triad_core::WriteOptions::default()).unwrap();
        assert!(
            end > seqno_before_failure + 1,
            "acknowledged writes after the failure must skip the failed group's range \
             (got end seqno {end})"
        );
        acked_after_failure = end;
        db.close().unwrap();
    }

    let db = Db::open(&dir, options).unwrap();
    // Every acknowledged write survived.
    for i in 0..5u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "acked key {i} lost");
    }
    for i in 10..20u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 2)), "acked key {i} lost");
    }
    // The failed write was appended and fsynced before the injected crash, so
    // recovery replays it: the standard WAL contract that an *unacknowledged*
    // write may still commit. What it must never do is displace an acked one.
    assert_eq!(
        db.get(&failed_key).unwrap().as_deref(),
        Some(&b"never-acknowledged"[..]),
        "the durable-but-unacknowledged record is replayed from the WAL"
    );
    // No phantom seqnos: recovery's horizon covers everything in the logs, and
    // fresh writes allocate strictly above it.
    let recovered = db.last_seqno();
    assert!(recovered >= acked_after_failure);
    let next = db
        .write_committed(
            {
                let mut batch = triad_core::WriteBatch::new();
                batch.put(b"post-recovery".to_vec(), b"ok".to_vec());
                batch
            },
            triad_core::WriteOptions::default(),
        )
        .unwrap();
    assert_eq!(next, recovered + 1, "post-recovery seqnos continue densely");
    db.close().unwrap();
}

/// Injects a failure in the *new* crash window the pipelined commit opens —
/// after the group's WAL append (bytes in the OS, not yet fsynced) but before
/// the sync stage runs — and asserts the pipeline's promises: a sync-required
/// write is never acknowledged before the durability watermark passes it (so
/// nothing acked can be lost), the failed group's seqno range is consumed
/// exactly once (no collision after reopen), and later writes commit densely.
#[test]
fn crash_between_pipelined_append_and_fsync_loses_nothing_acknowledged() {
    let dir = temp_dir("pipelined-crash-window");
    let mut options = small_single_shard();
    options.sync_mode = SyncMode::SyncEveryWrite;
    let failpoints = FailpointRegistry::new();
    let failed_key = key_for(5);
    let acked_after_failure;
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..5u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        let seqno_before_failure = db.last_seqno();
        assert_eq!(seqno_before_failure, 5);

        // The next write dies after its append but before its fsync: the exact
        // window the pipeline opened by taking the fsync off the append lock.
        failpoints.arm("commit.before_group_wal_sync", FailpointAction::ErrorTimes(1));
        let err = db.put(&failed_key, b"never-acknowledged").unwrap_err();
        assert!(
            matches!(err, triad_core::Error::Injected(_)),
            "the injected failure must surface to the unacknowledged writer: {err}"
        );
        assert_eq!(failpoints.hits("commit.before_group_wal_sync"), 1);
        // Nothing acked, nothing published, nothing readable: the failed write
        // never reached the memtable and never got its fsync.
        assert_eq!(db.last_seqno(), seqno_before_failure);
        assert_eq!(db.get(&failed_key).unwrap(), None, "a failed write must not be readable");

        // The failed group consumed its seqno range (its frames sit in the OS
        // and may become durable incidentally), so later acknowledged writes
        // must commit strictly past it.
        let mut batch = triad_core::WriteBatch::new();
        for i in 10..20u64 {
            batch.put(key_for(i), value_for(i, 2));
        }
        let end = db.write_committed(batch, triad_core::WriteOptions::default()).unwrap();
        assert!(
            end > seqno_before_failure + 1,
            "acknowledged writes after the failure must skip the failed group's range \
             (got end seqno {end})"
        );
        acked_after_failure = end;
        db.close().unwrap();
    }

    let db = Db::open(&dir, options).unwrap();
    // Every sync-acked write survived.
    for i in 0..5u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "acked key {i} lost");
    }
    for i in 10..20u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 2)), "acked key {i} lost");
    }
    // The failed record was flushed to the OS before the injected crash and the
    // close-time sync made the log durable, so recovery replays it: the standard
    // contract that an *unacknowledged* write may still commit. What it must
    // never do is displace an acked write or re-use a seqno.
    assert_eq!(
        db.get(&failed_key).unwrap().as_deref(),
        Some(&b"never-acknowledged"[..]),
        "the durable-but-unacknowledged record is replayed from the WAL"
    );
    // Seqnos stay dense and collision-free across the reopen.
    let recovered = db.last_seqno();
    assert!(recovered >= acked_after_failure);
    let next = db
        .write_committed(
            {
                let mut batch = triad_core::WriteBatch::new();
                batch.put(b"post-recovery".to_vec(), b"ok".to_vec());
                batch
            },
            triad_core::WriteOptions::default(),
        )
        .unwrap();
    assert_eq!(next, recovered + 1, "post-recovery seqnos continue densely");
    db.close().unwrap();
}

#[test]
fn recovery_tolerates_a_torn_commit_log_tail() {
    let dir = temp_dir("torn-log");
    let options = small_single_shard();
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        for i in 0..100u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.close().unwrap();
    }
    // Simulate a crash mid-append by chopping bytes off the newest commit log.
    let mut logs: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().map(|e| e == "log").unwrap_or(false))
        .collect();
    logs.sort();
    let newest = logs.last().expect("at least one commit log");
    let len = std::fs::metadata(newest).unwrap().len();
    assert!(len > 10);
    std::fs::OpenOptions::new().write(true).open(newest).unwrap().set_len(len - 7).unwrap();

    let db = Db::open(&dir, options).unwrap();
    // All but possibly the very last record must be intact.
    for i in 0..99u64 {
        assert_eq!(
            db.get(key_for(i)).unwrap(),
            Some(value_for(i, 1)),
            "key {i} lost after torn tail"
        );
    }
    db.close().unwrap();
}

#[test]
fn reopening_an_empty_directory_is_fine() {
    let dir = temp_dir("empty-reopen");
    let options = small_single_shard();
    for _ in 0..3 {
        let db = Db::open(&dir, options.clone()).unwrap();
        assert_eq!(db.get(b"anything").unwrap(), None);
        db.close().unwrap();
    }
}

#[test]
fn reopen_after_failed_compactions_sweeps_to_the_exact_live_set() {
    let dir = temp_dir("gc-failpoint-sweep");
    let mut options = small_single_shard();
    options.l0_compaction_trigger = 2;
    {
        // The first two compaction attempts die after writing their outputs but
        // before the manifest commit, orphaning table files on disk; the version
        // chain never references them.
        let failpoints = FailpointRegistry::new();
        failpoints.arm("compaction.before_manifest", FailpointAction::ErrorTimes(2));
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for version in 1..=3u64 {
            for i in 0..400u64 {
                db.put(key_for(i), value_for(i, version)).unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_for_compactions().unwrap();
        assert!(failpoints.hits("compaction.before_manifest") >= 2);
        for i in (0..400u64).step_by(23) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)));
        }
        db.close().unwrap();
    }
    // The startup sweep deletes the orphans of the failed attempts (and any file
    // whose deferred deletion the shutdown cut short).
    let db = reopen(&dir, &options);
    common::assert_disk_matches_live_set(&db, &dir);
    for i in 0..400u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)), "key {i} after sweep");
    }
    db.close().unwrap();
}

#[test]
fn stale_commit_logs_resurrected_by_a_crash_are_not_replayed() {
    let dir = temp_dir("stale-log-crash");
    let mut options = small_single_shard();
    options.triad = TriadConfig::log_only();
    options.l0_compaction_trigger = 2;
    let stale_logs: Vec<(std::path::PathBuf, Vec<u8>)>;
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        for i in 0..300u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        // Snapshot every commit log of the round-1 state (CL backing logs and the
        // then-active WAL) so the test can later "un-delete" them.
        stale_logs = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().map(|e| e == "log").unwrap_or(false))
            .map(|p| {
                let bytes = std::fs::read(&p).unwrap();
                (p, bytes)
            })
            .collect();
        for i in 0..300u64 {
            db.put(key_for(i), value_for(i, 2)).unwrap();
        }
        db.flush().unwrap();
        db.wait_for_compactions().unwrap();
        common::assert_disk_matches_live_set(&db, &dir);
        db.close().unwrap();
    }
    // Simulate a crash that happened before the deferred deletions hit the disk:
    // put the retired logs back. Their ids sit below the manifest's recovery
    // horizon, so replaying them would resurrect round-1 values over round-2 ones.
    let mut restored = 0;
    for (path, bytes) in &stale_logs {
        if !path.exists() {
            std::fs::write(path, bytes).unwrap();
            restored += 1;
        }
    }
    assert!(restored > 0, "compaction should have retired at least one round-1 log");

    let db = reopen(&dir, &options);
    for i in 0..300u64 {
        assert_eq!(
            db.get(key_for(i)).unwrap(),
            Some(value_for(i, 2)),
            "key {i} resurrected a stale value from a retired commit log"
        );
    }
    // The sweep also removed the stale logs again.
    common::assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
}

#[test]
fn flushes_that_write_no_file_still_advance_the_recovery_horizon() {
    let dir = temp_dir("no-file-flush-horizon");
    let mut options = small_single_shard();
    options.triad = TriadConfig::mem_only();
    // Every entry counts as hot, so a flush writes *no* table: the whole sealed
    // memtable is carried back into memory and the sealed log must be retired
    // purely through a manifest edit advancing `log_number` — the path that used
    // to unlink the log without recording anything.
    options.triad.hot_key_policy = triad_core::HotColdPolicy::TopFraction(1.0);
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        for i in 0..50u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        let stats = db.stats();
        assert_eq!(stats.flush_count, 1);
        assert_eq!(stats.hot_entries_retained, 50, "every entry stays in memory");
        assert_eq!(db.files_per_level()[0], 0, "an all-hot flush writes no L0 file");
        // The sealed log is collected even though no table took ownership of it.
        common::assert_disk_matches_live_set(&db, &dir);
        db.close().unwrap();
    }
    let db = reopen(&dir, &options);
    for i in 0..50u64 {
        assert_eq!(
            db.get(key_for(i)).unwrap(),
            Some(value_for(i, 1)),
            "key {i} lost after an all-hot flush"
        );
    }
    db.close().unwrap();
}

#[test]
fn injected_append_failures_reject_writes_without_losing_state() {
    let dir = temp_dir("append-failpoint");
    let options = small_single_shard();
    let failpoints = FailpointRegistry::new();
    let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
    db.put(key_for(0), value_for(0, 1)).unwrap();

    // Every write is rejected before it reaches the WAL while the failpoint is
    // armed; already-acknowledged data stays readable.
    failpoints.arm("write.before_wal_append", FailpointAction::ReturnError);
    assert!(db.put(key_for(1), value_for(1, 1)).is_err());
    assert!(failpoints.hits("write.before_wal_append") > 0);
    assert_eq!(db.get(key_for(0)).unwrap(), Some(value_for(0, 1)));

    // Disarming restores the write path with no residue.
    failpoints.disarm("write.before_wal_append");
    db.put(key_for(1), value_for(1, 2)).unwrap();
    assert_eq!(db.get(key_for(1)).unwrap(), Some(value_for(1, 2)));
    db.close().unwrap();

    let db = Db::open(&dir, options).unwrap();
    assert_eq!(db.get(key_for(0)).unwrap(), Some(value_for(0, 1)));
    assert_eq!(db.get(key_for(1)).unwrap(), Some(value_for(1, 2)));
    db.close().unwrap();
}

#[test]
fn injected_rotation_seal_failures_surface_once_and_recover() {
    let dir = temp_dir("rotate-seal-failpoint");
    let options = small_single_shard();
    let failpoints = FailpointRegistry::new();
    failpoints.arm("rotate.seal", FailpointAction::ErrorTimes(1));
    let mut acked: Vec<u64> = Vec::new();
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        // Enough volume to trip the 128 KiB log-size rotation trigger several
        // times. The one injected seal failure surfaces as a single write error
        // (rotation runs on the write path after publication); later writes
        // retry the rotation and succeed.
        let mut failures = 0u64;
        for i in 0..4_000u64 {
            match db.put(key_for(i), value_for(i, 1)) {
                Ok(()) => acked.push(i),
                Err(_) => failures += 1,
            }
        }
        assert!(failpoints.hits("rotate.seal") > 1, "rotation should have been retried");
        assert!(failures <= 1, "only the injected failure may surface, saw {failures}");
        for &i in acked.iter().step_by(101) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
        }
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    for &i in &acked {
        assert_eq!(
            db.get(key_for(i)).unwrap(),
            Some(value_for(i, 1)),
            "key {i} lost after an injected rotation failure"
        );
    }
    db.close().unwrap();
}

#[test]
fn injected_small_flush_skip_failures_keep_hot_data() {
    let dir = temp_dir("small-flush-skip-failpoint");
    let mut options = small_single_shard();
    options.memtable_size = 1024 * 1024;
    options.max_log_size = 32 * 1024;
    options.triad = TriadConfig::mem_only();
    options.triad.flush_skip_threshold_bytes = 512 * 1024;
    let failpoints = FailpointRegistry::new();
    failpoints.arm("rotate.small_flush_skip", FailpointAction::ErrorTimes(1));
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        // A small hot working set fills the log long before the memtable: every
        // rotation takes the TRIAD-MEM skip path. The injected failure surfaces
        // as at most one write error; the skip is retried on the next trigger.
        let mut failures = 0u64;
        for version in 0..2_000u64 {
            let i = version % 10;
            if db.put(key_for(i), value_for(i, version)).is_err() {
                failures += 1;
            }
        }
        assert!(failpoints.hits("rotate.small_flush_skip") > 1, "skip path should be retried");
        assert!(failures <= 1, "only the injected failure may surface, saw {failures}");
        assert!(db.stats().small_flush_skips > 0, "workload should exercise the skip path");
        assert_eq!(db.stats().flush_count, 0, "no table should be written for a hot working set");
        for i in 0..10u64 {
            assert!(db.get(key_for(i)).unwrap().is_some(), "key {i} lost");
        }
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    for i in 0..10u64 {
        assert!(db.get(key_for(i)).unwrap().is_some(), "key {i} lost after reopen");
    }
    db.close().unwrap();
}

/// Writes 500 distinct keys and hammers the first five so the TRIAD-MEM
/// `TopFraction(0.01)` policy classifies them as hot at the next flush.
fn write_skewed_keyspace(db: &Db) {
    for i in 0..500u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    for round in 2..40u64 {
        for i in 0..5u64 {
            db.put(key_for(i), value_for(i, round)).unwrap();
        }
    }
}

#[test]
fn injected_hot_write_back_failures_are_retried() {
    let dir = temp_dir("hot-write-back-failpoint");
    let mut options = small_single_shard();
    options.triad = TriadConfig::mem_only();
    options.triad.flush_skip_threshold_bytes = 0; // force real flushes
    let failpoints = FailpointRegistry::new();
    failpoints.arm("flush.hot_write_back", FailpointAction::ErrorTimes(1));
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        write_skewed_keyspace(&db);
        // The first flush attempt dies at the hot write-back; the background
        // worker retries and the flush completes.
        db.flush().unwrap();
        assert!(failpoints.hits("flush.hot_write_back") > 0);
        assert!(db.stats().hot_entries_retained > 0, "hot entries should be written back");
        for i in 0..5u64 {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 39)));
        }
        for i in (5..500u64).step_by(29) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
        }
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    for i in 0..5u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 39)));
    }
    db.close().unwrap();
}

#[test]
fn injected_table_write_failures_are_retried() {
    let dir = temp_dir("table-write-failpoint");
    let options = small_single_shard();
    let failpoints = FailpointRegistry::new();
    failpoints.arm("flush.before_table_write", FailpointAction::ErrorTimes(1));
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..500u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        assert!(failpoints.hits("flush.before_table_write") > 0);
        assert!(db.stats().flush_count > 0, "the retried flush should have completed");
        for i in (0..500u64).step_by(43) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
        }
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    for i in 0..500u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
    }
    db.close().unwrap();
}

#[test]
fn injected_manifest_failures_are_retried() {
    let dir = temp_dir("manifest-failpoint");
    let options = small_single_shard();
    let failpoints = FailpointRegistry::new();
    failpoints.arm("flush.before_manifest", FailpointAction::ErrorTimes(1));
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..500u64 {
            db.put(key_for(i), value_for(i, 2)).unwrap();
        }
        db.flush().unwrap();
        assert!(failpoints.hits("flush.before_manifest") > 0);
        assert!(db.stats().flush_count > 0, "the retried flush should have completed");
        for i in (0..500u64).step_by(43) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 2)));
        }
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    for i in 0..500u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 2)));
    }
    db.close().unwrap();
}

/// A crash between the per-shard commits of a cross-shard batch must not
/// surface the slices that did commit: recovery counts the batch torn
/// (`recovery_torn_batches`) and drops every durable slice, while batches
/// before and after the tear survive intact.
#[test]
fn torn_cross_shard_batches_are_dropped_on_recovery() {
    use triad_core::{ShardConfig, WriteBatch, WriteOptions};

    let dir = temp_dir("torn-batch");
    let mut options = Options::small_for_tests();
    options.shards = ShardConfig::with_count(4);
    let failpoints = FailpointRegistry::new();
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        // A baseline cross-shard batch that must survive the crash.
        let mut batch = WriteBatch::new();
        for i in 0..16u64 {
            batch.put(key_for(i), value_for(i, 0));
        }
        db.write(batch, WriteOptions { sync: true }).unwrap();

        // The torn batch: the failpoint lets exactly one shard's slice commit
        // durably, then kills the fan-out before the remaining shards see it.
        failpoints.arm("db.after_shard_commit", FailpointAction::ErrorTimes(1));
        let mut torn = WriteBatch::new();
        for i in 100..116u64 {
            torn.put(key_for(i), value_for(i, 7));
        }
        let err = db.write(torn, WriteOptions { sync: true }).unwrap_err();
        assert!(matches!(err, triad_core::Error::Injected(_)), "got {err:?}");
        assert_eq!(failpoints.hits("db.after_shard_commit"), 1);

        // Writes after the tear keep flowing and must also survive.
        db.put(key_for(50), value_for(50, 1)).unwrap();
        // No flush: the torn slice exists only in one shard's commit log, the
        // crash window the stamp-counting recovery is built for.
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    assert!(db.stats().recovery_torn_batches >= 1, "recovery must count the torn batch");
    for i in 100..116u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), None, "torn slice key {i} resurfaced");
    }
    for i in 0..16u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 0)), "baseline key {i} lost");
    }
    assert_eq!(db.get(key_for(50)).unwrap(), Some(value_for(50, 1)));
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The inverse guarantee: a cross-shard batch that *was* fully acknowledged
/// must survive a reopen even after one shard's slice graduated into an
/// SSTable — the crash window where the slice's stamped WAL records have
/// left the stray-log set and detection would otherwise misjudge the batch
/// as torn, dropping the other shard's acknowledged slice. The retention
/// registry keeps the flushed shard's retired log on disk as evidence
/// (`stamps.rs`), and recovery's second detection pass reads it back.
#[test]
fn acknowledged_cross_shard_batch_survives_one_shards_flush() {
    use triad_core::{ShardConfig, WriteBatch, WriteOptions};

    // Mirrors the engine's key -> shard routing (FNV-1a mod count), so the
    // filler below can target shard 0 exclusively.
    fn shard_of(key: &[u8], count: u64) -> usize {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &byte in key {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash % count) as usize
    }

    let dir = temp_dir("acked-batch-flush");
    let mut options = Options::small_for_tests();
    options.shards = ShardConfig::with_count(2);
    let on_shard_0: Vec<u64> = (0..4_000).filter(|i| shard_of(&key_for(*i), 2) == 0).collect();
    let on_shard_1 = (0..4_000).find(|i| shard_of(&key_for(*i), 2) == 1).unwrap();
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        // An acknowledged batch spanning both shards.
        let mut batch = WriteBatch::new();
        batch.put(key_for(on_shard_0[0]), value_for(on_shard_0[0], 9));
        batch.put(key_for(on_shard_1), value_for(on_shard_1, 9));
        db.write(batch, WriteOptions { sync: true }).unwrap();

        // Graduate shard 0's slice: filler routed exclusively to shard 0
        // rotates its memtable and flushes the sealed log holding the stamped
        // slice, while shard 1's slice stays put in its (stray) commit log.
        for &i in &on_shard_0[1..] {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        for _ in 0..500 {
            if db.stats().flush_count >= 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(db.stats().flush_count >= 1, "filler never triggered shard 0's flush");
        // The retired log now holds the only stamped copy of shard 0's slice;
        // retention must keep it on disk (and account for it) through GC.
        common::assert_disk_matches_live_set(&db, &dir);
        let retained_logs = common::disk_files(&dir)
            .iter()
            .filter(|name| name.starts_with("shard-000/") && name.ends_with(".log"))
            .count();
        assert!(
            retained_logs >= 2,
            "expected shard 0 to keep its retired stamp-evidence log alongside              the active one, found {retained_logs} log(s)"
        );
        db.close().unwrap();
    }
    let db = reopen(&dir, &options);
    assert_eq!(
        db.stats().recovery_torn_batches,
        0,
        "acknowledged cross-shard batch misjudged as torn"
    );
    assert_eq!(db.get(key_for(on_shard_0[0])).unwrap(), Some(value_for(on_shard_0[0], 9)));
    assert_eq!(
        db.get(key_for(on_shard_1)).unwrap(),
        Some(value_for(on_shard_1, 9)),
        "acknowledged slice on the unflushed shard was dropped at recovery"
    );
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
