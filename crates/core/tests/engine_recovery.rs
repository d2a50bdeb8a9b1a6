//! Durability and recovery: every acknowledged write must survive a reopen.
//!
//! These tests corrupt, truncate and inspect commit logs and manifests at the
//! database root, so they run at `Options::small_for_tests()`'s single shard;
//! the cross-shard tests set their shard count explicitly.

mod common;

use std::collections::BTreeSet;

use common::{key_for, temp_dir, value_for};
use triad_common::failpoint::{Failpoint, FailpointAction, FailpointRegistry};
use triad_core::{Db, Options, SyncMode, TriadConfig, Version, VersionEdit};

fn reopen(dir: &std::path::Path, options: &Options) -> Db {
    Db::open(dir, options.clone()).unwrap()
}

#[test]
fn unflushed_writes_are_recovered_from_the_commit_log() {
    let dir = temp_dir("wal-recovery");
    let options = Options::small_for_tests();
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
    let mut options = Options::small_for_tests();
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
    let options = Options::small_for_tests();
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
    let mut options = Options::small_for_tests();
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
    let mut options = Options::small_for_tests();
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
    let mut options = Options::small_for_tests();
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
    let options = Options::small_for_tests();
    let failpoints = FailpointRegistry::new();
    // Every flush attempt fails while the failpoint is armed; data must stay safe in
    // the memtable + commit log.
    failpoints.arm(Failpoint::FlushStart, FailpointAction::ReturnError);
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..2_000u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        // Reads still served correctly from memory even though flushing is broken.
        for i in (0..2_000u64).step_by(191) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
        }
        assert!(
            failpoints.hits(Failpoint::FlushStart) > 0,
            "the failpoint should have been exercised"
        );
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
    let mut options = Options::small_for_tests();
    options.l0_compaction_trigger = 2;
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::CompactionStart, FailpointAction::ErrorTimes(3));
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

/// Persistent background failures must surface from the blocking waits as an
/// error instead of hanging them, and must not lose acknowledged writes.
#[test]
fn persistent_flush_failure_fails_flush_instead_of_hanging() {
    let dir = temp_dir("flush-persistent-failure");
    let options = Options::small_for_tests();
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::FlushStart, FailpointAction::ReturnError);
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..500u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        let started = std::time::Instant::now();
        let result = db.flush();
        assert!(result.is_err(), "flush must report the failing worker, got {result:?}");
        assert!(started.elapsed() < std::time::Duration::from_secs(2), "flush gave up too late");
        assert!(db.stats().background_errors >= 3);
        db.close().unwrap();
    }
    let db = Db::open(&dir, options).unwrap();
    for i in 0..500u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i} lost");
    }
    db.close().unwrap();
}

#[test]
fn persistent_compaction_failure_fails_the_wait_instead_of_hanging() {
    let dir = temp_dir("compaction-persistent-failure");
    let options = Options::small_for_tests();
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::CompactionStart, FailpointAction::ReturnError);
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        // One L0 file per round: enough to reach the compaction trigger.
        for version in 1..=options.l0_compaction_trigger as u64 {
            for i in 0..100u64 {
                db.put(key_for(i), value_for(i, version)).unwrap();
            }
            db.flush().unwrap();
        }
        let started = std::time::Instant::now();
        let result = db.wait_for_compactions();
        assert!(result.is_err(), "the wait must report the failing worker, got {result:?}");
        assert!(started.elapsed() < std::time::Duration::from_secs(2), "the wait gave up too late");
        assert!(db.stats().background_errors >= 3);
        db.close().unwrap();
    }
    let db = Db::open(&dir, options.clone()).unwrap();
    let latest = options.l0_compaction_trigger as u64;
    for i in 0..100u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, latest)), "key {i} lost");
    }
    db.close().unwrap();
}

/// Injects a failure in the exact crash window of the commit pipeline —
/// after the group's WAL append (and fsync) but before any memtable insert — and
/// asserts the two invariants the pipeline promises: no acknowledged write is
/// ever lost, and no sequence number is ever issued twice (the failed group's
/// range is consumed, so later acknowledged writes cannot collide with the
/// orphaned records a recovery replay may resurrect).
#[test]
fn crash_between_group_wal_append_and_memtable_insert_loses_nothing_acknowledged() {
    let dir = temp_dir("group-commit-crash-window");
    let mut options = Options::small_for_tests();
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
        failpoints.arm(Failpoint::CommitAfterGroupWalAppend, FailpointAction::ErrorTimes(1));
        let err = db.put(&failed_key, b"never-acknowledged").unwrap_err();
        assert!(
            matches!(err, triad_core::Error::Injected(_)),
            "the injected failure must surface to the (un-acknowledged) writer: {err}"
        );
        assert_eq!(failpoints.hits(Failpoint::CommitAfterGroupWalAppend), 1);
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
    let mut options = Options::small_for_tests();
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
        failpoints.arm(Failpoint::CommitBeforeGroupWalSync, FailpointAction::ErrorTimes(1));
        let err = db.put(&failed_key, b"never-acknowledged").unwrap_err();
        assert!(
            matches!(err, triad_core::Error::Injected(_)),
            "the injected failure must surface to the unacknowledged writer: {err}"
        );
        assert_eq!(failpoints.hits(Failpoint::CommitBeforeGroupWalSync), 1);
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

/// A `SyncEvery(n)` group that owed the fsync and failed before it re-arms
/// the deadline, so the very next group syncs: one transient failure must not
/// stretch the durability interval to 2n-1 writes. This is also the test that
/// runs `abandon_group`'s re-arm, which takes the WAL lock only after the
/// group released its commit-gate membership; the debug rank checker panics
/// if that order is ever reversed.
#[test]
fn a_failed_sync_every_group_makes_the_next_group_sync() {
    let dir = temp_dir("sync-every-rearm");
    let mut options = Options::small_for_tests();
    options.sync_mode = SyncMode::SyncEvery(4);
    let failpoints = FailpointRegistry::new();
    let db = Db::open_with_failpoints(&dir, options, failpoints.clone()).unwrap();
    for i in 0..3u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    let syncs = |db: &Db| {
        let stats = db.stats();
        stats.wal_syncs + stats.wal_syncs_overlapped
    };
    let before = syncs(&db);

    // The fourth write owes the fsync and dies before it.
    failpoints.arm(Failpoint::CommitBeforeGroupWalSync, FailpointAction::ErrorTimes(1));
    assert!(db.put(key_for(3), value_for(3, 1)).is_err());
    assert_eq!(failpoints.hits(Failpoint::CommitBeforeGroupWalSync), 1);
    assert_eq!(syncs(&db), before);

    db.put(key_for(4), value_for(4, 1)).unwrap();
    assert_eq!(syncs(&db), before + 1, "the write after a failed sync must sync at once");
    db.close().unwrap();
}

/// Every failpoint is checked at some engine call site and armed by some
/// test: a failpoint no test arms is a crash window without coverage. (A test
/// arming a failpoint the engine does not declare does not compile.)
#[test]
fn every_failpoint_is_checked_by_the_engine_and_armed_by_a_test() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    // Every `.rs` file directly under `dir`, whitespace removed so a call that
    // rustfmt wraps across lines still matches.
    let sources = |dir: &str| -> String {
        let mut text = String::new();
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "rs") {
                text.push_str(&std::fs::read_to_string(path).unwrap());
            }
        }
        text.split_whitespace().collect()
    };
    let (engine, tests) = (sources("src"), sources("tests"));
    for point in Failpoint::ALL {
        let variant = format!("Failpoint::{point:?}");
        assert!(engine.contains(&format!("check({variant})")), "no engine site checks {variant}");
        assert!(tests.contains(&format!(".arm({variant},")), "no test arms {variant}");
    }
}

#[test]
fn recovery_tolerates_a_torn_commit_log_tail() {
    let dir = temp_dir("torn-log");
    let options = Options::small_for_tests();
    {
        let db = Db::open(&dir, options.clone()).unwrap();
        for i in 0..100u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.close().unwrap();
    }
    // Simulate a crash mid-append by chopping bytes off the newest commit log.
    let logs = commit_logs(&dir);
    let newest = logs.last().expect("at least one commit log");
    let len = std::fs::metadata(newest).unwrap().len();
    assert!(len > 10);
    set_len(newest, len - 7);

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

/// Every commit log in `dir`, oldest first.
fn commit_logs(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut logs: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().map(|e| e == "log").unwrap_or(false))
        .collect();
    logs.sort();
    logs
}

/// Truncates (or extends) the file at `path` to `len` bytes.
fn set_len(path: &std::path::Path, len: u64) {
    std::fs::OpenOptions::new().write(true).open(path).unwrap().set_len(len).unwrap();
}

/// Opens `dir` expecting a corruption error that names `log`.
fn assert_open_fails_naming(dir: &std::path::Path, options: Options, log: &std::path::Path) {
    let error = Db::open(dir, options).unwrap_err();
    assert!(error.is_corruption(), "expected corruption, got {error:?}");
    let name = log.file_name().unwrap().to_string_lossy().into_owned();
    let message = error.to_string();
    assert!(message.contains(&name) && message.contains("offset"), "{message}");
}

/// One flipped bit in the middle of a log is not a torn tail: the records
/// after it were acknowledged as durable and are intact, so the open must
/// fail rather than silently drop them.
#[test]
fn a_corrupt_record_mid_log_fails_the_open() {
    let dir = temp_dir("corrupt-mid-log");
    let mut options = Options::small_for_tests();
    options.sync_mode = SyncMode::SyncEveryWrite;
    let db = Db::open(&dir, options.clone()).unwrap();
    for i in 0..100u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.close().unwrap();
    let log = commit_logs(&dir).pop().expect("a commit log");
    let mut bytes = std::fs::read(&log).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x10;
    std::fs::write(&log, &bytes).unwrap();
    assert_open_fails_naming(&dir, options, &log);
}

/// A rotation creates the next log before it syncs the outgoing one (and the
/// TRIAD-MEM small-flush rewrite never syncs it), so a crash in that window
/// leaves a torn older log beside an empty or partly written successor. The
/// torn record was never acknowledged as durable: the open drops it and
/// keeps everything before it.
#[test]
fn a_torn_older_log_next_to_its_successor_opens() {
    // The successor as the crash left it: created but empty, or cut mid-record.
    for successor_len in [0, 10] {
        let dir = temp_dir("torn-older-log");
        let options = Options::small_for_tests();
        let failpoints = FailpointRegistry::new();
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..10u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        // A sealed log whose flush never succeeds stays stray behind the next.
        failpoints.arm(Failpoint::FlushStart, FailpointAction::ReturnError);
        assert!(db.flush().is_err());
        db.put(key_for(10), value_for(10, 1)).unwrap();
        db.close().unwrap();
        let logs = commit_logs(&dir);
        assert_eq!(logs.len(), 2, "one sealed and one active log: {logs:?}");
        set_len(&logs[0], std::fs::metadata(&logs[0]).unwrap().len() - 7);
        set_len(&logs[1], successor_len);

        let db = Db::open(&dir, options).unwrap();
        for i in 0..9u64 {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i} lost");
        }
        assert_eq!(db.get(key_for(9)).unwrap(), None, "the torn record is dropped");
        db.close().unwrap();
    }
}

#[test]
fn reopening_an_empty_directory_is_fine() {
    let dir = temp_dir("empty-reopen");
    let options = Options::small_for_tests();
    for _ in 0..3 {
        let db = Db::open(&dir, options.clone()).unwrap();
        assert_eq!(db.get(b"anything").unwrap(), None);
        db.close().unwrap();
    }
}

#[test]
fn reopen_after_failed_compactions_sweeps_to_the_exact_live_set() {
    let dir = temp_dir("gc-failpoint-sweep");
    let mut options = Options::small_for_tests();
    options.l0_compaction_trigger = 2;
    {
        // The first two compaction attempts die after writing their outputs but
        // before the manifest commit, orphaning table files on disk; the version
        // chain never references them.
        let failpoints = FailpointRegistry::new();
        failpoints.arm(Failpoint::CompactionBeforeManifest, FailpointAction::ErrorTimes(2));
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for version in 1..=3u64 {
            for i in 0..400u64 {
                db.put(key_for(i), value_for(i, version)).unwrap();
            }
            db.flush().unwrap();
        }
        db.wait_for_compactions().unwrap();
        assert!(failpoints.hits(Failpoint::CompactionBeforeManifest) >= 2);
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
fn failed_compactions_leave_no_orphans_before_reopen() {
    let dir = temp_dir("failed-compaction-orphans");
    let mut options = Options::small_for_tests();
    options.l0_compaction_trigger = 2;
    // The first two compaction attempts write their outputs and then fail
    // before logging the version edit. Each must delete its own outputs: under
    // a persistent error every retry writes new file numbers, so leaving them
    // for the next open's sweep grows the leak with every attempt.
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::CompactionBeforeManifest, FailpointAction::ErrorTimes(2));
    let db = Db::open_with_failpoints(&dir, options, failpoints.clone()).unwrap();
    for version in 1..=3u64 {
        for i in 0..400u64 {
            db.put(key_for(i), value_for(i, version)).unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_for_compactions().unwrap();
    assert!(failpoints.hits(Failpoint::CompactionBeforeManifest) >= 2);
    assert!(db.stats().background_errors >= 2);
    assert!(db.stats().compaction_count >= 1, "a later attempt must succeed");
    // No reopen: the live process itself must hold exactly the live set.
    common::assert_disk_matches_live_set(&db, &dir);
    for i in (0..400u64).step_by(23) {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)));
    }
    db.close().unwrap();
}

#[test]
fn stale_commit_logs_resurrected_by_a_crash_are_not_replayed() {
    let dir = temp_dir("stale-log-crash");
    let mut options = Options::small_for_tests();
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
    let mut options = Options::small_for_tests();
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
    let options = Options::small_for_tests();
    let failpoints = FailpointRegistry::new();
    let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
    db.put(key_for(0), value_for(0, 1)).unwrap();

    // Every write is rejected before it reaches the WAL while the failpoint is
    // armed; already-acknowledged data stays readable.
    failpoints.arm(Failpoint::WriteBeforeWalAppend, FailpointAction::ReturnError);
    assert!(db.put(key_for(1), value_for(1, 1)).is_err());
    assert!(failpoints.hits(Failpoint::WriteBeforeWalAppend) > 0);
    assert_eq!(db.get(key_for(0)).unwrap(), Some(value_for(0, 1)));

    // Disarming restores the write path with no residue.
    failpoints.disarm(Failpoint::WriteBeforeWalAppend);
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
    let options = Options::small_for_tests();
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::RotateSeal, FailpointAction::ErrorTimes(1));
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
        assert!(failpoints.hits(Failpoint::RotateSeal) > 1, "rotation should have been retried");
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
    let mut options = Options::small_for_tests();
    options.memtable_size = 1024 * 1024;
    options.max_log_size = 32 * 1024;
    options.triad = TriadConfig::mem_only();
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::RotateSmallFlushSkip, FailpointAction::ErrorTimes(1));
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
        assert!(
            failpoints.hits(Failpoint::RotateSmallFlushSkip) > 1,
            "skip path should be retried"
        );
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
    let mut options = Options::small_for_tests();
    options.triad = TriadConfig::mem_only();
    // Only a full memtable or the explicit flush rotates: real flushes only.
    options.max_log_size = 64 << 20;
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::FlushHotWriteBack, FailpointAction::ErrorTimes(1));
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        write_skewed_keyspace(&db);
        // The first flush attempt dies at the hot write-back; the background
        // worker retries and the flush completes.
        db.flush().unwrap();
        assert!(failpoints.hits(Failpoint::FlushHotWriteBack) > 0);
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
    let options = Options::small_for_tests();
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::FlushBeforeTableWrite, FailpointAction::ErrorTimes(1));
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..500u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        assert!(failpoints.hits(Failpoint::FlushBeforeTableWrite) > 0);
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
    let options = Options::small_for_tests();
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::FlushBeforeManifest, FailpointAction::ErrorTimes(1));
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        for i in 0..500u64 {
            db.put(key_for(i), value_for(i, 2)).unwrap();
        }
        db.flush().unwrap();
        assert!(failpoints.hits(Failpoint::FlushBeforeManifest) > 0);
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
        failpoints.arm(Failpoint::DbAfterShardCommit, FailpointAction::ErrorTimes(1));
        let mut torn = WriteBatch::new();
        for i in 100..116u64 {
            torn.put(key_for(i), value_for(i, 7));
        }
        let err = db.write(torn, WriteOptions { sync: true }).unwrap_err();
        assert!(matches!(err, triad_core::Error::Injected(_)), "got {err:?}");
        assert_eq!(failpoints.hits(Failpoint::DbAfterShardCommit), 1);

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
        db.wait_for_compactions().unwrap();
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

// ---- Moves: a compaction whose one regular input overlaps nothing below ----

/// Every version edit in the live manifest of the database in `dir`, in log
/// order: the snapshot edit written at open, then one per flush or
/// compaction since.
fn manifest_edits(dir: &std::path::Path) -> Vec<VersionEdit> {
    let name = std::fs::read_to_string(dir.join("CURRENT")).unwrap();
    let reader = triad_wal::LogReader::open(dir.join(name.trim())).unwrap();
    let (records, _tail) = reader.recover().unwrap();
    records.iter().map(|r| VersionEdit::decode(&r.record.value).unwrap()).collect()
}

/// The file ids on each level of the version `edits` replay to.
fn replayed_levels(edits: &[VersionEdit]) -> Vec<BTreeSet<u64>> {
    let mut version = Version::empty(Options::small_for_tests().num_levels);
    for edit in edits {
        version = version.apply(edit).unwrap();
    }
    version.levels.iter().map(|files| files.iter().map(|f| f.id).collect()).collect()
}

/// The id `edit` moves one level down, if it is a move: it deletes one file
/// and adds the same id, with the same metadata, on the next level.
fn moved_id(edit: &VersionEdit) -> Option<u64> {
    match (edit.deleted.as_slice(), edit.added.as_slice()) {
        ([(level, id)], [added]) if added.id == *id && added.level == level + 1 => Some(*id),
        _ => None,
    }
}

/// Every flush is compacted into L1 at once. TRIAD-LOG makes each L0 file a
/// CL-SSTable, which never moves, so L0→L1 always rewrites into
/// `target_file_size` tables; L1 spills to L2 past 64 KiB.
fn move_options() -> Options {
    let mut options = Options::small_for_tests();
    options.triad = TriadConfig::log_only();
    options.l0_compaction_trigger = 1;
    options.target_file_size = 16 * 1024;
    options.l1_target_size = 64 * 1024;
    options
}

fn load(db: &Db, keys: std::ops::Range<u64>) {
    for i in keys {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
}

/// Sequential keys: each flush lands past every file on L1 and L2, so when
/// L1 spills, the file it picks overlaps nothing on L2 and moves.
#[test]
fn a_compaction_that_overlaps_nothing_below_moves_its_file() {
    const FIRST: u64 = 300;
    const SECOND: u64 = 100;
    let dir = temp_dir("trivial-move");
    let options = move_options();
    let db = Db::open(&dir, options.clone()).unwrap();

    // L1 fills to just under its target: every compaction so far rewrote.
    load(&db, 0..FIRST);
    let before = db.stats();
    let l1_before = replayed_levels(&manifest_edits(&dir))[1].clone();
    assert_eq!(before.compaction_moves, 0);
    assert!(l1_before.len() >= 2, "L1 holds several tables: {l1_before:?}");
    let iter = db.scan().unwrap();

    // A smaller, higher key range tips L1 over its target.
    load(&db, FIRST..FIRST + SECOND);
    let after = db.stats();
    let edits = manifest_edits(&dir);
    let moved: Vec<u64> = edits.iter().filter_map(moved_id).collect();
    assert!(after.compaction_moves > 0, "L1 spilled by a move");
    assert_eq!(moved.len() as u64, after.compaction_moves, "one edit per move");
    let levels = replayed_levels(&edits);
    assert!(!levels[2].is_empty());
    assert!(
        levels[2].is_subset(&l1_before),
        "L2 {:?} holds only ids from L1 {l1_before:?}",
        levels[2]
    );
    assert!(moved.iter().all(|id| levels[2].contains(id) && l1_before.contains(id)));
    // A move writes no table bytes: the rewrite counters add up over the
    // edits that rewrote, and those never move a CL-SSTable.
    let rewrites: Vec<&VersionEdit> =
        edits.iter().filter(|e| !e.deleted.is_empty() && moved_id(e).is_none()).collect();
    assert_eq!(after.compaction_count, rewrites.len() as u64);
    let rewritten: u64 = rewrites.iter().flat_map(|e| &e.added).map(|f| f.size).sum();
    assert_eq!(after.bytes_compacted_written, rewritten);
    assert!(after.bytes_compacted_written > before.bytes_compacted_written);

    // The iterator opened before the move reads the moved file's keys.
    let scanned: Vec<Vec<u8>> = iter.map(|entry| entry.unwrap().0).collect();
    assert_eq!(scanned, (0..FIRST).map(key_for).collect::<Vec<_>>());
    for i in 0..FIRST + SECOND {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i}");
    }
    common::assert_disk_matches_live_set(&db, &dir);

    // A checkpoint taken after the move opens with every key.
    let ckpt_dir = temp_dir("trivial-move-ckpt");
    std::fs::remove_dir_all(&ckpt_dir).unwrap();
    drop(db.checkpoint(&ckpt_dir).unwrap());
    let ckpt = Db::open(&ckpt_dir, options.clone()).unwrap();
    for i in 0..FIRST + SECOND {
        assert_eq!(ckpt.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "checkpoint key {i}");
    }
    ckpt.close().unwrap();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    db.close().unwrap();

    // Reopen replays each move's delete + add of one id.
    let db = reopen(&dir, &options);
    assert_eq!(replayed_levels(&manifest_edits(&dir)), levels);
    for i in 0..FIRST + SECOND {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "reopened key {i}");
    }
    common::assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A move checks the same failpoints as a rewrite, and a failed move leaves
/// the tree as it was. The reopen lowers L1's target under three tables
/// written by rewrites, so the only work left is spilling L1 by moves.
#[test]
fn a_failed_move_is_retried_and_moves_only() {
    let dir = temp_dir("trivial-move-failpoints");
    let roomy = Options { l1_target_size: 1 << 20, ..move_options() };
    let db = Db::open(&dir, roomy).unwrap();
    load(&db, 0..300);
    assert_eq!(db.files_per_level()[1..3], [3, 0]);
    db.close().unwrap();

    let options = Options { l1_target_size: 32 * 1024, ..move_options() };
    let failpoints = FailpointRegistry::new();
    failpoints.arm(Failpoint::CompactionStart, FailpointAction::ErrorTimes(1));
    failpoints.arm(Failpoint::CompactionBeforeManifest, FailpointAction::ErrorTimes(1));
    let db = Db::open_with_failpoints(&dir, options, failpoints.clone()).unwrap();
    db.wait_for_compactions().unwrap();
    // Four attempts start: one fails there, one fails before its edit, two
    // move a file. A hit is counted on every check, failing or not.
    assert_eq!(failpoints.hits(Failpoint::CompactionStart), 4);
    assert_eq!(failpoints.hits(Failpoint::CompactionBeforeManifest), 3);
    let stats = db.stats();
    assert_eq!(stats.background_errors, 2);
    assert_eq!(stats.compaction_moves, 2, "two of the three tables move to L2");
    assert_eq!(
        (stats.compaction_count, stats.bytes_compacted_read, stats.bytes_compacted_written),
        (0, 0, 0),
        "nothing was rewritten"
    );
    assert_eq!(db.files_per_level()[1..3], [1, 2]);
    for i in 0..300u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)), "key {i}");
    }
    common::assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
