//! MVCC snapshot tests: frozen views under concurrent writers, flushes and
//! compaction churn; group-boundary consistency; GC interaction; and the
//! pipelined crash window.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use common::{assert_disk_matches_live_set, disk_files, key_for, open_small};
use triad_common::failpoint::{FailpointAction, FailpointRegistry};
use triad_core::{Db, Options, SyncMode, TriadConfig, WriteBatch, WriteOptions};

fn churny(options: &mut Options) {
    options.l0_compaction_trigger = 2;
    options.triad = TriadConfig::all_enabled();
    // Never defer L0 compaction and never absorb a rotation with the
    // small-flush rule, so flushes and compactions deterministically retire
    // files while snapshots hold their frozen views.
    options.triad.overlap_ratio_threshold = 0.0;
    options.triad.flush_skip_threshold_bytes = 0;
}

#[test]
fn snapshot_freezes_reads_across_flush_and_compaction() {
    let (db, dir) = open_small("snapshot-freeze", churny);
    let db = Arc::new(db);
    const KEYS: u64 = 200;
    for i in 0..KEYS {
        db.put(key_for(i), format!("v1-{i}").into_bytes()).unwrap();
    }
    db.delete(key_for(0)).unwrap();

    let snap = db.snapshot();
    let snap_seqno = snap.seqno();
    assert_eq!(snap_seqno, db.last_seqno(), "quiesced: the snapshot sits at the published seqno");

    // N concurrent write groups overwrite every key, insert fresh keys and
    // delete one the snapshot can see.
    let mut writers = Vec::new();
    for t in 0..4u64 {
        let db = Arc::clone(&db);
        writers.push(thread::spawn(move || {
            for i in 0..KEYS {
                if i % 4 == t {
                    db.put(key_for(i), format!("v2-{i}").into_bytes()).unwrap();
                    db.put(key_for(1_000 + t * KEYS + i), b"post-snapshot").unwrap();
                }
            }
        }));
    }
    for writer in writers {
        writer.join().unwrap();
    }
    db.delete(key_for(7)).unwrap();

    // Push the overwritten state through a flush *and* an L0→L1 compaction, so
    // the snapshot's files are retired from the current version while it reads.
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();

    for i in 1..KEYS {
        let live = db.get(key_for(i)).unwrap();
        if i == 7 {
            assert_eq!(live, None, "the live view saw the post-snapshot delete");
        } else {
            assert_eq!(live.as_deref(), Some(format!("v2-{i}").as_bytes()), "live key {i}");
        }
        assert_eq!(
            snap.get(key_for(i)).unwrap().as_deref(),
            Some(format!("v1-{i}").as_bytes()),
            "snapshot must return the pre-overwrite value of key {i}"
        );
    }
    assert_eq!(snap.get(key_for(0)).unwrap(), None, "pre-snapshot delete stays deleted");
    assert_eq!(snap.get(key_for(1_003)).unwrap(), None, "post-snapshot keys are invisible");

    // The scan shows exactly the snapshot's world: keys 1..KEYS at v1.
    let scanned: Vec<(Vec<u8>, Vec<u8>)> = snap.scan().unwrap().map(|r| r.unwrap()).collect();
    assert_eq!(scanned.len() as u64, KEYS - 1);
    for (key, value) in &scanned {
        let i: u64 = String::from_utf8_lossy(&key[4..]).parse().unwrap();
        assert_eq!(value, format!("v1-{i}").as_bytes(), "scan value for key {i}");
    }
    // Bounded range scans work too.
    let ranged: Vec<_> = snap
        .scan_range(Some(&key_for(10)), Some(&key_for(20)))
        .unwrap()
        .map(|r| r.unwrap())
        .collect();
    assert_eq!(ranged.len(), 10);

    drop(snap);
    db.wait_for_compactions().unwrap();
    assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn long_lived_snapshot_survives_concurrent_churn() {
    let (db, dir) = open_small("snapshot-churn", churny);
    let db = Arc::new(db);
    const KEYS: u64 = 300;
    for i in 0..KEYS {
        db.put(key_for(i), format!("base-{i}").into_bytes()).unwrap();
    }
    let snap = Arc::new(db.snapshot());
    let snap_seqno = snap.seqno();

    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..3u64 {
        let db = Arc::clone(&db);
        writers.push(thread::spawn(move || {
            // Heavy overwrite + delete churn with values fat enough to force
            // rotations, flushes and compactions (file retirement under the
            // open snapshot).
            for i in 0..3_000u64 {
                let key = key_for((t * 31 + i * 7) % KEYS);
                if i % 13 == 0 {
                    db.delete(&key).unwrap();
                } else {
                    db.put(&key, format!("churn-{t}-{i}-{}", "x".repeat(120)).into_bytes())
                        .unwrap();
                }
            }
        }));
    }
    let mut checkers = Vec::new();
    for c in 0..2u64 {
        let snap = Arc::clone(&snap);
        let stop = Arc::clone(&stop);
        checkers.push(thread::spawn(move || {
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Point probes: every key frozen at its base value.
                for i in (c..KEYS).step_by(17) {
                    assert_eq!(
                        snap.get(key_for(i)).unwrap().as_deref(),
                        Some(format!("base-{i}").as_bytes()),
                        "snapshot lost key {i} under churn"
                    );
                }
                // Full scan: no missing keys, no future values, no duplicates.
                let scanned: Vec<(Vec<u8>, Vec<u8>)> =
                    snap.scan().unwrap().map(|r| r.unwrap()).collect();
                assert_eq!(scanned.len() as u64, KEYS, "snapshot scan must stay complete");
                for window in scanned.windows(2) {
                    assert!(window[0].0 < window[1].0, "scan keys must stay strictly sorted");
                }
                for (key, value) in &scanned {
                    let i: u64 = String::from_utf8_lossy(&key[4..]).parse().unwrap();
                    assert_eq!(
                        value,
                        format!("base-{i}").as_bytes(),
                        "snapshot scan surfaced a post-snapshot value for key {i}"
                    );
                }
                rounds += 1;
            }
            rounds
        }));
    }
    for writer in writers {
        writer.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for checker in checkers {
        assert!(checker.join().unwrap() > 0, "the checker must have verified at least one round");
    }
    assert_eq!(snap.seqno(), snap_seqno, "a snapshot's seqno never moves");

    // Drop the last handle: GC reclaims everything only the snapshot pinned.
    drop(Arc::try_unwrap(snap).expect("checkers joined: last snapshot handle"));
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();
    assert_disk_matches_live_set(&db, &dir);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshots_never_observe_half_a_write_batch() {
    let (db, dir) = open_small("snapshot-batch-atomicity", |options| {
        options.memtable_size = 8 * 1024 * 1024;
        options.max_log_size = 16 * 1024 * 1024;
    });
    let db = Arc::new(db);
    const WRITERS: u64 = 4;
    const BATCH_KEYS: u64 = 5;
    // Seed generation 0 so every key always exists.
    for t in 0..WRITERS {
        let mut batch = WriteBatch::new();
        for k in 0..BATCH_KEYS {
            batch.put(format!("w{t}-k{k}").into_bytes(), b"gen-00000".to_vec());
        }
        db.write(batch, WriteOptions::default()).unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for t in 0..WRITERS {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        writers.push(thread::spawn(move || {
            let mut generation = 1u64;
            while !stop.load(Ordering::Relaxed) {
                // One batch bumps all five keys to the same generation; a
                // snapshot must see all five at one generation or none updated.
                let mut batch = WriteBatch::new();
                for k in 0..BATCH_KEYS {
                    batch.put(
                        format!("w{t}-k{k}").into_bytes(),
                        format!("gen-{generation:05}").into_bytes(),
                    );
                }
                db.write(batch, WriteOptions::default()).unwrap();
                generation += 1;
            }
        }));
    }

    for _ in 0..200 {
        let snap = db.snapshot();
        for t in 0..WRITERS {
            let first = snap.get(format!("w{t}-k0").into_bytes()).unwrap().unwrap();
            for k in 1..BATCH_KEYS {
                let value = snap.get(format!("w{t}-k{k}").into_bytes()).unwrap().unwrap();
                assert_eq!(
                    value,
                    first,
                    "snapshot at seqno {} observed writer {t}'s batch half-applied",
                    snap.seqno()
                );
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().unwrap();
    }
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dropping_the_snapshot_releases_exactly_the_files_it_pinned() {
    let (db, dir) = open_small("snapshot-gc", churny);
    const KEYS: u64 = 150;
    for i in 0..KEYS {
        db.put(key_for(i), format!("pinned-{i}-{}", "y".repeat(100)).into_bytes()).unwrap();
    }
    db.flush().unwrap();
    db.wait_for_compactions().unwrap();

    let snap = db.snapshot();
    // Churn the whole key space through several flushes and compactions: the
    // current version moves on, retiring the files the snapshot still reads.
    for round in 0..4u64 {
        for i in 0..KEYS {
            db.put(key_for(i), format!("new-{round}-{i}-{}", "z".repeat(100)).into_bytes())
                .unwrap();
        }
        db.flush().unwrap();
    }
    db.wait_for_compactions().unwrap();

    // While the snapshot is open, the expected live set includes its pinned
    // version's files, and the directory must match exactly that (no premature
    // deletion of pinned files, no leaks beyond them).
    for _ in 0..500 {
        db.collect_garbage();
        if disk_files(&dir) == db.expected_live_files() {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(10));
    }
    let with_snapshot = db.expected_live_files();
    assert_eq!(disk_files(&dir), with_snapshot, "pinned files must stay on disk");
    // The snapshot still reads its frozen world from those files.
    for i in (0..KEYS).step_by(10) {
        let value = snap.get(key_for(i)).unwrap().unwrap();
        assert!(
            value.starts_with(format!("pinned-{i}-").as_bytes()),
            "snapshot must read the pinned version of key {i}"
        );
    }

    // Dropping the snapshot shrinks the expected set and GC deletes exactly
    // the difference: the directory converges to the current version's set.
    drop(snap);
    assert_disk_matches_live_set(&db, &dir);
    let without_snapshot = db.expected_live_files();
    assert!(
        without_snapshot.is_subset(&with_snapshot),
        "dropping a snapshot only ever shrinks the expected live set"
    );
    assert!(
        without_snapshot.len() < with_snapshot.len(),
        "the snapshot was pinning retired files; its drop must release some"
    );
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_of_an_empty_database_is_empty_and_stays_empty() {
    let (db, dir) = open_small("snapshot-empty", |_| {});
    let snap = db.snapshot();
    assert_eq!(snap.seqno(), 0);
    db.put(b"after", b"value").unwrap();
    assert_eq!(snap.get(b"after").unwrap(), None);
    assert_eq!(snap.scan().unwrap().count(), 0);
    assert_eq!(db.get(b"after").unwrap().as_deref(), Some(&b"value"[..]));
    drop(snap);
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// The pipelined crash window (append done, fsync pending): a snapshot can
/// never observe the non-durable write, because publication — and therefore
/// the snapshot's seqno — waits for durability. After recovery, a fresh
/// snapshot agrees with the recovered live state (which is allowed to have
/// committed the unacknowledged write).
#[test]
fn snapshot_in_the_pipelined_sync_window_never_sees_nondurable_data() {
    let dir = common::temp_dir("snapshot-crash-window");
    let mut options = Options::small_for_tests();
    options.sync_mode = SyncMode::SyncEveryWrite;
    let failpoints = FailpointRegistry::new();
    {
        let db = Db::open_with_failpoints(&dir, options.clone(), failpoints.clone()).unwrap();
        db.put(b"stable", b"durable-v1").unwrap();
        let seqno_before = db.last_seqno();

        // The next write dies between its append stage and its fsync — the
        // window the pipeline opened. It is appended (and may survive a crash)
        // but never acknowledged, never published.
        failpoints.arm("commit.before_group_wal_sync", FailpointAction::ErrorTimes(1));
        let err = db.put(b"stable", b"never-acked-v2").unwrap_err();
        assert!(matches!(err, triad_core::Error::Injected(_)), "unexpected failure: {err}");

        // A snapshot taken in (and after) that window is bounded by the
        // published seqno, which never covered the non-durable group.
        let snap = db.snapshot();
        assert_eq!(snap.seqno(), seqno_before, "the snapshot seqno excludes the failed group");
        assert_eq!(
            snap.get(b"stable").unwrap().as_deref(),
            Some(&b"durable-v1"[..]),
            "a snapshot must never observe unacknowledged, non-durable data"
        );
        let scanned: Vec<(Vec<u8>, Vec<u8>)> = snap.scan().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(scanned, vec![(b"stable".to_vec(), b"durable-v1".to_vec())]);
        drop(snap);
        db.close().unwrap();
    }

    // Recovery may replay the appended-but-unacknowledged record (the standard
    // contract). Whatever it decides, a post-recovery snapshot must agree with
    // the live read — published, group-boundary state only.
    let db = Db::open(&dir, options).unwrap();
    let live = db.get(b"stable").unwrap();
    let snap = db.snapshot();
    assert_eq!(snap.seqno(), db.last_seqno());
    assert_eq!(
        snap.get(b"stable").unwrap(),
        live,
        "a post-recovery snapshot agrees with the recovered live state"
    );
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_prior_of_an_idle_key_is_released_when_the_snapshot_drops() {
    // The PR 5 retention caveat, fixed: pruning used to be piggybacked on the
    // overwrite path only, so a key overwritten *under* a snapshot kept its
    // retained prior after the snapshot dropped until the slot's next
    // overwrite or a flush. Now the last deregistration of a seqno moves the
    // registry bounds and triggers a prune sweep, so release is prompt even
    // for keys that are never touched again.
    let (db, dir) = open_small("retention-prompt-release", |options| {
        // Keep everything in one active memtable: no rotation, no flush.
        options.memtable_size = 4 * 1024 * 1024;
    });
    db.put(b"idle", b"v1").unwrap();
    db.put(b"other", b"w1").unwrap();
    assert_eq!(db.retained_prior_versions(), 0, "no snapshot, no retention");

    let snap = db.snapshot();
    db.put(b"idle", b"v2").unwrap();
    assert_eq!(db.retained_prior_versions(), 1, "the overwrite retained v1 for the snapshot");
    assert_eq!(snap.get(b"idle").unwrap().as_deref(), Some(b"v1".as_ref()));

    drop(snap);
    // The key is never overwritten again and nothing flushes; the drop alone
    // must have swept the stale prior.
    assert_eq!(
        db.retained_prior_versions(),
        0,
        "an idle key's stale prior is released promptly when the last snapshot drops"
    );
    assert_eq!(db.get(b"idle").unwrap().as_deref(), Some(b"v2".as_ref()));

    // An older snapshot that still needs the prior keeps it across a younger
    // snapshot's drop — only unreachable versions are swept.
    let older = db.snapshot();
    db.put(b"idle", b"v3").unwrap();
    let younger = db.snapshot();
    db.put(b"idle", b"v4").unwrap();
    assert_eq!(db.retained_prior_versions(), 2);
    drop(younger);
    assert_eq!(db.retained_prior_versions(), 1, "the older snapshot still pins v2's successor");
    assert_eq!(older.get(b"idle").unwrap().as_deref(), Some(b"v2".as_ref()));
    drop(older);
    assert_eq!(db.retained_prior_versions(), 0, "the last drop sweeps everything");

    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retained_memory_stays_bounded_under_churn_with_a_live_snapshot() {
    // One open snapshot can pin at most one prior version per overwritten
    // slot, no matter how many times the slot churns: each overwrite prunes
    // the previous round's version (the snapshot can no longer read it,
    // having a newer visible successor) and keeps only the newest version the
    // snapshot *can* read. Memory is bounded by the key count, not the op count.
    const KEYS: u64 = 50;
    const ROUNDS: u64 = 40;
    let (db, dir) = open_small("retention-bounded", |options| {
        options.memtable_size = 8 * 1024 * 1024;
    });
    for i in 0..KEYS {
        db.put(key_for(i), format!("v0-{i}").into_bytes()).unwrap();
    }
    let snap = db.snapshot();
    for round in 1..=ROUNDS {
        for i in 0..KEYS {
            db.put(key_for(i), format!("v{round}-{i}").into_bytes()).unwrap();
        }
        let retained = db.retained_prior_versions();
        assert!(
            retained <= KEYS as usize,
            "round {round}: retained {retained} priors for {KEYS} keys — retention must be \
             bounded by the key count, not the {} overwrites so far",
            round * KEYS
        );
    }
    // The snapshot still reads its frozen world through all that churn.
    for i in 0..KEYS {
        assert_eq!(
            snap.get(key_for(i)).unwrap().as_deref(),
            Some(format!("v0-{i}").as_bytes()),
            "snapshot view of key {i}"
        );
    }
    drop(snap);
    // One more sweep over every slot releases everything.
    for i in 0..KEYS {
        db.put(key_for(i), b"final").unwrap();
    }
    assert_eq!(db.retained_prior_versions(), 0, "churn after the drop releases all priors");
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
