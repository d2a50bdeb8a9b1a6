//! Crash-consistent checkpoints: a checkpoint directory must open as a normal
//! database and read exactly the state of the snapshot returned by
//! [`Db::checkpoint`] — no more, no less — even while writers churn every
//! shard. Partial checkpoints (crash or injected failure midway) must be
//! detected on open and removable without touching the primary, and every
//! hard link must degrade to a per-file copy when linking fails (`EXDEV`).

mod common;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{disk_files, key_for, open_small, temp_dir, value_for};
use triad_common::failpoint::{Failpoint, FailpointAction, FailpointRegistry};
use triad_core::{Db, Error, ShardConfig, WriteBatch, WriteOptions};

fn scan_all(iter: triad_core::DbIterator) -> Vec<(Vec<u8>, Vec<u8>)> {
    iter.map(|r| r.unwrap()).collect()
}

/// A checkpoint taken while four writer threads keep committing must open as
/// a database whose contents byte-agree with the snapshot the checkpoint
/// returned — the cut is consistent despite the churn.
#[test]
fn checkpoint_under_concurrent_writers_matches_its_snapshot() {
    let (db, dir) = open_small("ckpt-churn", |_| {});
    for i in 0..400u64 {
        db.put(key_for(i), value_for(i, 0)).unwrap();
    }
    db.flush().unwrap();

    let db = Arc::new(db);
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    for i in (t * 100)..(t * 100 + 100) {
                        db.put(key_for(i), value_for(i, round)).unwrap();
                    }
                    db.delete(key_for(t * 100 + round % 100)).unwrap();
                    round += 1;
                }
            })
        })
        .collect();

    let ckpt_dir = temp_dir("ckpt-churn-target");
    std::fs::remove_dir_all(&ckpt_dir).unwrap(); // checkpoint wants it absent or empty
    let snapshot = db.checkpoint(&ckpt_dir).unwrap();
    let expected = scan_all(snapshot.scan().unwrap());

    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().unwrap();
    }

    assert!(db.stats().checkpoints_created >= 1);
    let replica = Db::open(&ckpt_dir, common::small_options()).unwrap();
    let got = scan_all(replica.scan().unwrap());
    assert_eq!(got, expected, "checkpoint contents diverge from the checkpoint's snapshot");

    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// On a quiesced primary, every data file in the checkpoint is a file the
/// primary's live version accounts for (only the manifest is rewritten), the
/// checkpoint opens into exactly its own live set, and reads agree key by key.
#[test]
fn checkpoint_open_equivalence_on_quiesced_primary() {
    let (db, dir) = open_small("ckpt-equiv", |_| {});
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 0)).unwrap();
    }
    db.flush().unwrap();
    for i in 0..100u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    for i in (200..250u64).step_by(3) {
        db.delete(key_for(i)).unwrap();
    }
    db.wait_for_compactions().unwrap();

    let ckpt_dir = temp_dir("ckpt-equiv-target");
    let snapshot = db.checkpoint(&ckpt_dir).unwrap();

    // File identity: everything but the rewritten manifests must come from
    // the primary's live set (hard links of pinned files, log prefixes).
    let live = db.expected_live_files();
    for name in disk_files(&ckpt_dir) {
        let base = name.rsplit('/').next().unwrap();
        if base.starts_with("MANIFEST-") {
            continue;
        }
        assert!(live.contains(&name), "checkpoint file {name} is not in the primary's live set");
    }

    let replica = Db::open(&ckpt_dir, common::small_options()).unwrap();
    common::assert_disk_matches_live_set(&replica, &ckpt_dir);
    for i in 0..300u64 {
        assert_eq!(
            replica.get(key_for(i)).unwrap(),
            snapshot.get(key_for(i)).unwrap(),
            "key {i} reads differently from the checkpoint than from its snapshot"
        );
    }
    assert_eq!(scan_all(replica.scan().unwrap()), scan_all(snapshot.scan().unwrap()));

    // The checkpoint is writable like any other database.
    replica.put(b"fork", b"ok").unwrap();
    assert_eq!(replica.get(b"fork").unwrap().as_deref(), Some(&b"ok"[..]));
    assert_eq!(db.get(b"fork").unwrap(), None, "a checkpoint write must not reach the primary");

    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// A checkpoint that dies midway (injected after linking, and again right
/// before the manifest write) leaves a directory that `Db::open` refuses as
/// corrupt, that `remove_dir_all` cleans up, and the primary is untouched.
#[test]
fn partial_checkpoint_is_detected_and_removable() {
    let dir = temp_dir("ckpt-partial");
    let failpoints = FailpointRegistry::new();
    let db = Db::open_with_failpoints(&dir, common::small_options(), failpoints.clone()).unwrap();
    for i in 0..200u64 {
        db.put(key_for(i), value_for(i, 0)).unwrap();
    }
    db.flush().unwrap();
    for i in 0..50u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }

    // A partial checkpoint — whatever stage it died at — must keep its
    // pending marker, refuse to open, and clean up with one remove_dir_all.
    let assert_partial_detected = |stage: &str| {
        let ckpt_dir = temp_dir(&format!("ckpt-partial-{stage}"));
        std::fs::remove_dir_all(&ckpt_dir).unwrap();
        let err = db.checkpoint(&ckpt_dir).unwrap_err();
        assert!(matches!(err, Error::Injected(_)), "unexpected error at {stage}: {err:?}");
        assert!(
            ckpt_dir.join("CHECKPOINT-PENDING").exists(),
            "a failed checkpoint must leave its pending marker behind ({stage})"
        );
        let open_err = Db::open(&ckpt_dir, common::small_options()).unwrap_err();
        assert!(
            matches!(open_err, Error::Corruption { .. }),
            "opening a partial checkpoint must fail with corruption, got {open_err:?}"
        );
        std::fs::remove_dir_all(&ckpt_dir).unwrap();
    };
    failpoints.arm(Failpoint::CheckpointAfterLink, FailpointAction::ErrorTimes(1));
    assert_partial_detected("after-link");
    failpoints.arm(Failpoint::CheckpointBeforeManifest, FailpointAction::ErrorTimes(1));
    assert_partial_detected("before-manifest");

    // The primary is unaffected: reads intact, a clean checkpoint works, and
    // the failed attempts leaked nothing into the primary's directory.
    for i in 0..50u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 1)));
    }
    let ckpt_dir = temp_dir("ckpt-partial-clean");
    std::fs::remove_dir_all(&ckpt_dir).unwrap();
    db.checkpoint(&ckpt_dir).unwrap();
    let replica = Db::open(&ckpt_dir, common::small_options()).unwrap();
    assert_eq!(replica.get(key_for(0)).unwrap(), Some(value_for(0, 1)));
    replica.close().unwrap();
    common::assert_disk_matches_live_set(&db, &dir);

    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// With hard links failing (the `checkpoint.link` failpoint plays the role of
/// a cross-filesystem `EXDEV` target), every file degrades to a byte copy and
/// the checkpoint still opens and reads identically.
#[test]
fn link_failure_falls_back_to_per_file_copies() {
    let dir = temp_dir("ckpt-exdev");
    let failpoints = FailpointRegistry::new();
    let db = Db::open_with_failpoints(&dir, common::small_options(), failpoints.clone()).unwrap();
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 0)).unwrap();
    }
    db.flush().unwrap();
    for i in 0..80u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }

    failpoints.arm(Failpoint::CheckpointLink, FailpointAction::ReturnError);
    let ckpt_dir = temp_dir("ckpt-exdev-target");
    std::fs::remove_dir_all(&ckpt_dir).unwrap();
    let snapshot = db.checkpoint(&ckpt_dir).unwrap();
    failpoints.disarm(Failpoint::CheckpointLink);

    let stats = db.stats();
    assert_eq!(stats.checkpoint_files_linked, 0, "no hard link may survive a link failure");
    assert!(stats.checkpoint_files_copied > 0, "the fallback must have copied files");

    let replica = Db::open(&ckpt_dir, common::small_options()).unwrap();
    assert_eq!(scan_all(replica.scan().unwrap()), scan_all(snapshot.scan().unwrap()));

    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}

/// A checkpoint writes only inside its own target: every file of a quiesced
/// primary keeps its name and every byte through a clean checkpoint, one
/// whose links all fall back to copies, and one dying at each failpoint.
#[test]
fn checkpoints_leave_the_primarys_files_untouched() {
    let dir = temp_dir("ckpt-untouched");
    let failpoints = FailpointRegistry::new();
    let db = Db::open_with_failpoints(&dir, common::small_options(), failpoints.clone()).unwrap();
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 0)).unwrap();
    }
    db.flush().unwrap();
    for i in 0..80u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.wait_for_compactions().unwrap();
    let contents = || -> BTreeMap<String, Vec<u8>> {
        disk_files(&dir)
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(&name)).unwrap();
                (name, bytes)
            })
            .collect()
    };
    let before = contents();

    let attempts = [
        None,
        Some(Failpoint::CheckpointLink),
        Some(Failpoint::CheckpointAfterLink),
        Some(Failpoint::CheckpointBeforeManifest),
    ];
    for (round, point) in attempts.into_iter().enumerate() {
        if let Some(point) = point {
            failpoints.arm(point, FailpointAction::ReturnError);
        }
        let target = temp_dir(&format!("ckpt-untouched-target-{round}"));
        std::fs::remove_dir_all(&target).unwrap();
        let outcome = db.checkpoint(&target).map(drop);
        failpoints.clear();
        let after = contents();
        let changed: Vec<&String> = before
            .keys()
            .chain(after.keys())
            .filter(|name| before.get(*name) != after.get(*name))
            .collect();
        assert!(changed.is_empty(), "checkpoint {point:?} ({outcome:?}) changed {changed:?}");
        std::fs::remove_dir_all(&target).unwrap();
    }

    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A non-empty target directory is rejected up front with `InvalidArgument`
/// and its contents are left alone.
#[test]
fn checkpoint_rejects_a_non_empty_target() {
    let (db, dir) = open_small("ckpt-nonempty", |_| {});
    db.put(b"k", b"v").unwrap();

    let target = temp_dir("ckpt-nonempty-target");
    std::fs::write(target.join("keep-me"), b"precious").unwrap();
    let err = db.checkpoint(&target).unwrap_err();
    assert!(matches!(err, Error::InvalidArgument(_)), "got {err:?}");
    assert_eq!(std::fs::read(target.join("keep-me")).unwrap(), b"precious");

    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&target).ok();
}

/// On an explicitly four-sharded database, a checkpoint taken mid-churn keeps
/// cross-shard batches atomic: each writer thread commits its whole key group
/// to one value per round, and the opened checkpoint must never show a group
/// split across rounds. The sharded layout (`SHARDS` marker, `shard-NNN/`
/// directories) must round-trip through the checkpoint.
#[test]
fn sharded_checkpoint_keeps_cross_shard_batches_atomic() {
    let (db, dir) =
        open_small("ckpt-sharded", |options| options.shards = ShardConfig::with_count(4));
    assert_eq!(db.shard_count(), 4);

    let db = Arc::new(db);
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut batch = WriteBatch::new();
                    // Eight spread-out keys: all but certainly a cross-shard batch.
                    for i in 0..8u64 {
                        batch.put(format!("group-{t}-{i}"), round.to_string());
                    }
                    db.write(batch, WriteOptions::default()).unwrap();
                    round += 1;
                }
            })
        })
        .collect();

    // Let the writers build up churn, then cut.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let ckpt_dir = temp_dir("ckpt-sharded-target");
    std::fs::remove_dir_all(&ckpt_dir).unwrap();
    let snapshot = db.checkpoint(&ckpt_dir).unwrap();
    stop.store(true, Ordering::Relaxed);
    for writer in writers {
        writer.join().unwrap();
    }

    assert!(ckpt_dir.join("SHARDS").exists(), "a sharded checkpoint must carry the SHARDS marker");
    let replica = Db::open(&ckpt_dir, common::small_options()).unwrap();
    assert_eq!(replica.shard_count(), 4, "the persisted shard count must win on open");
    for t in 0..4u64 {
        let rounds: Vec<Option<Vec<u8>>> =
            (0..8u64).map(|i| replica.get(format!("group-{t}-{i}")).unwrap()).collect();
        assert!(
            rounds.windows(2).all(|pair| pair[0] == pair[1]),
            "writer {t}'s cross-shard batch is torn in the checkpoint: {rounds:?}"
        );
        assert_eq!(rounds[0], snapshot.get(format!("group-{t}-0")).unwrap());
    }

    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
}
