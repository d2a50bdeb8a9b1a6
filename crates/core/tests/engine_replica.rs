//! WAL shipping to a read replica: bootstrap from a checkpoint, catch up by
//! replaying shipped commit-log records, and serve consistent reads through
//! the rolling view — under churn, across replica restarts, and with the
//! primary's log retention held for the follower.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{key_for, open_small, temp_dir, value_for};
use triad_core::{Options, Replica, ShardConfig, TriadConfig, WriteBatch, WriteOptions};

fn scan_all(iter: triad_core::DbIterator) -> Vec<(Vec<u8>, Vec<u8>)> {
    iter.map(|r| r.unwrap()).collect()
}

/// Checkpoint-seeded bootstrap, then one catch-up round: the replica reports
/// its lag, drains it to zero, and afterwards reads exactly what the primary
/// reads — including overwrites and deletes shipped after the bootstrap cut.
#[test]
fn replica_bootstraps_from_checkpoint_and_catches_up() {
    let (db, dir) = open_small("replica-basic", |_| {});
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 0)).unwrap();
    }
    db.flush().unwrap();

    db.hold_wal_for_replication();
    let replica_dir = temp_dir("replica-basic-follower");
    std::fs::remove_dir_all(&replica_dir).unwrap();
    db.checkpoint(&replica_dir).unwrap();
    let replica = Replica::bootstrap(&replica_dir, common::small_options()).unwrap();

    // The follower serves the bootstrap cut before any catch-up.
    assert_eq!(replica.get(key_for(0)).unwrap(), Some(value_for(0, 0)));

    for i in 0..150u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    for i in (200..260u64).step_by(4) {
        db.delete(key_for(i)).unwrap();
    }
    db.put(b"only-after-checkpoint", b"shipped").unwrap();

    assert!(replica.lag(&db) > 0, "the primary moved; the replica must report lag");
    // The un-caught-up view still reads the old cut.
    assert_eq!(replica.get(key_for(0)).unwrap(), Some(value_for(0, 0)));

    let applied = replica.catch_up(&db).unwrap();
    assert!(applied > 0);
    assert_eq!(replica.lag(&db), 0, "a quiesced primary must be fully drained");
    assert!(replica.db().stats().replica_records_applied >= applied);

    for i in 0..300u64 {
        assert_eq!(replica.get(key_for(i)).unwrap(), db.get(key_for(i)).unwrap(), "key {i}");
    }
    assert_eq!(replica.get(b"only-after-checkpoint").unwrap().as_deref(), Some(&b"shipped"[..]));
    assert_eq!(scan_all(replica.scan().unwrap()), scan_all(db.scan().unwrap()));

    // Caught up, another round is a no-op.
    assert_eq!(replica.catch_up(&db).unwrap(), 0);

    db.release_wal_hold();
    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// Four writer threads churn cross-shard batches on a four-sharded primary
/// while the replica repeatedly catches up. After every round the rolling
/// view must show each writer's key group at a single round value (a shipped
/// cut never tears a cross-shard batch), and once the writers stop, the
/// replica converges to the primary's snapshot at the same watermark.
#[test]
fn replica_catch_up_under_writer_churn_never_serves_a_torn_cut() {
    let (db, dir) =
        open_small("replica-churn", |options| options.shards = ShardConfig::with_count(4));
    for t in 0..4u64 {
        let mut batch = WriteBatch::new();
        for i in 0..8u64 {
            batch.put(format!("group-{t}-{i}"), 0u64.to_string());
        }
        db.write(batch, WriteOptions::default()).unwrap();
    }
    db.flush().unwrap();

    db.hold_wal_for_replication();
    let replica_dir = temp_dir("replica-churn-follower");
    std::fs::remove_dir_all(&replica_dir).unwrap();
    db.checkpoint(&replica_dir).unwrap();
    let replica = Replica::bootstrap(&replica_dir, common::small_options()).unwrap();
    assert_eq!(replica.db().shard_count(), 4);

    // Each writer commits a bounded number of rounds (keeping the log volume
    // each shipping round re-reads in check) while the replica repeatedly
    // catches up and checks its view mid-churn.
    let db = Arc::new(db);
    let live = Arc::new(AtomicBool::new(true));
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for round in 1..=150u64 {
                    let mut batch = WriteBatch::new();
                    for i in 0..8u64 {
                        batch.put(format!("group-{t}-{i}"), round.to_string());
                    }
                    db.write(batch, WriteOptions::default()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            })
        })
        .collect();

    while live.load(Ordering::Relaxed) {
        live.store(writers.iter().any(|writer| !writer.is_finished()), Ordering::Relaxed);
        replica.catch_up(&db).unwrap();
        for t in 0..4u64 {
            let rounds: Vec<Option<Vec<u8>>> =
                (0..8u64).map(|i| replica.get(format!("group-{t}-{i}")).unwrap()).collect();
            assert!(
                rounds.windows(2).all(|pair| pair[0] == pair[1]),
                "writer {t}'s cross-shard batch is torn in the replica view: {rounds:?}"
            );
        }
    }
    for writer in writers {
        writer.join().unwrap();
    }

    // Divergence check at a shared watermark: drain the quiesced primary,
    // then both sides' full contents must agree exactly.
    while replica.lag(&db) > 0 {
        replica.catch_up(&db).unwrap();
    }
    let primary_view = db.snapshot();
    assert_eq!(replica.view_seqno(), primary_view.seqno());
    assert_eq!(scan_all(replica.scan().unwrap()), scan_all(primary_view.scan().unwrap()));

    db.release_wal_hold();
    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// A replica that shuts down mid-stream recovers through the ordinary open
/// path (its shipped records live in its own commit log) and keeps catching
/// up from where it left off — re-shipped overlap lands idempotently.
#[test]
fn replica_restart_resumes_catch_up_idempotently() {
    let (db, dir) = open_small("replica-restart", |_| {});
    for i in 0..200u64 {
        db.put(key_for(i), value_for(i, 0)).unwrap();
    }
    db.flush().unwrap();

    db.hold_wal_for_replication();
    let replica_dir = temp_dir("replica-restart-follower");
    std::fs::remove_dir_all(&replica_dir).unwrap();
    db.checkpoint(&replica_dir).unwrap();

    {
        let replica = Replica::bootstrap(&replica_dir, common::small_options()).unwrap();
        for i in 0..100u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        assert!(replica.catch_up(&db).unwrap() > 0);
        assert_eq!(replica.get(key_for(50)).unwrap(), Some(value_for(50, 1)));
        replica.close().unwrap();
    }

    for i in 100..200u64 {
        db.put(key_for(i), value_for(i, 2)).unwrap();
    }
    let replica = Replica::bootstrap(&replica_dir, common::small_options()).unwrap();
    // The pre-restart rounds survived the replica's own recovery.
    assert_eq!(replica.get(key_for(50)).unwrap(), Some(value_for(50, 1)));
    replica.catch_up(&db).unwrap();
    assert_eq!(replica.lag(&db), 0);
    for i in 0..200u64 {
        assert_eq!(replica.get(key_for(i)).unwrap(), db.get(key_for(i)).unwrap(), "key {i}");
    }
    assert_eq!(scan_all(replica.scan().unwrap()), scan_all(db.scan().unwrap()));

    db.release_wal_hold();
    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// The shipping hold keeps the primary's commit logs on disk across flushes
/// and collections until the replica has caught up past them; releasing the
/// hold lets the collector reclaim them again.
#[test]
fn wal_hold_retains_logs_until_the_replica_catches_up() {
    let (db, dir) = open_small("replica-retention", common::single_shard);
    db.put(key_for(0), value_for(0, 0)).unwrap();
    db.flush().unwrap();

    db.hold_wal_for_replication();
    let replica_dir = temp_dir("replica-retention-follower");
    std::fs::remove_dir_all(&replica_dir).unwrap();
    db.checkpoint(&replica_dir).unwrap();
    let replica = Replica::bootstrap(&replica_dir, Options::small_for_tests()).unwrap();

    // Push enough data through rotations that, without the hold, old logs
    // would be flushed into tables and collected.
    for round in 1..=4u64 {
        for i in 0..400u64 {
            db.put(key_for(i), value_for(i, round)).unwrap();
        }
        db.flush().unwrap();
    }
    db.collect_garbage();
    let held_logs = common::disk_files(&dir).iter().filter(|name| name.ends_with(".log")).count();
    assert!(held_logs > 1, "the shipping hold must retain flushed commit logs, found {held_logs}");

    // Catching up ratchets the hold forward; releasing it drops the rest and
    // the primary converges back to exactly its live file set.
    while replica.lag(&db) > 0 {
        replica.catch_up(&db).unwrap();
    }
    for i in 0..400u64 {
        assert_eq!(replica.get(key_for(i)).unwrap(), Some(value_for(i, 4)), "key {i}");
    }
    db.release_wal_hold();
    common::assert_disk_matches_live_set(&db, &dir);

    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}

/// TRIAD-MEM small-flush skips on both sides of WAL shipping. A primary skip
/// hands its old log to the collector, which keeps it while the shipping hold
/// covers it, so every record past the replica's cursor still ships, not just
/// the rewrite's newest versions. The replica's apply loop takes skips of its
/// own and fsyncs and retires after it releases its WAL lock.
#[test]
fn small_flush_skips_on_both_sides_still_ship_every_record() {
    let hot = |options: &mut Options| {
        options.memtable_size = 1024 * 1024;
        options.max_log_size = 32 * 1024;
        options.triad = TriadConfig::mem_only();
    };
    let (db, dir) = open_small("replica-skips", hot);
    db.put(key_for(0), value_for(0, 0)).unwrap();
    db.hold_wal_for_replication();
    let replica_dir = temp_dir("replica-skips-follower");
    std::fs::remove_dir_all(&replica_dir).unwrap();
    db.checkpoint(&replica_dir).unwrap();
    let mut replica_options = common::small_options();
    hot(&mut replica_options);
    let replica = Replica::bootstrap(&replica_dir, replica_options.clone()).unwrap();

    for round in 1..=6u64 {
        for version in 0..500u64 {
            let i = version % 10;
            db.put(key_for(i), value_for(i, round * 1_000 + version)).unwrap();
        }
        assert_eq!(replica.catch_up(&db).unwrap(), 500, "round {round} shipped a partial log");
        for i in 0..10u64 {
            assert_eq!(replica.get(key_for(i)).unwrap(), db.get(key_for(i)).unwrap(), "key {i}");
        }
    }
    assert!(db.stats().small_flush_skips > 0, "the primary never skipped");
    assert!(replica.db().stats().small_flush_skips > 0, "the replica never skipped");
    assert_eq!(db.stats().flush_count + replica.db().stats().flush_count, 0);
    db.release_wal_hold();
    common::assert_disk_matches_live_set(&db, &dir);
    common::assert_disk_matches_live_set(replica.db(), &replica_dir);
    replica.close().unwrap();
    drop(replica);

    let replica = Replica::bootstrap(&replica_dir, replica_options).unwrap();
    for i in 0..10u64 {
        assert_eq!(replica.get(key_for(i)).unwrap(), db.get(key_for(i)).unwrap(), "key {i}");
    }
    replica.close().unwrap();
    db.close().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();
}
