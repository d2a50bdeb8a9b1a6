//! End-to-end behaviour of the shared block cache: correctness across flush,
//! compaction and GC, counter plumbing, and byte-identical reads with the
//! cache disabled.

mod common;

use common::{key_for, open_small, value_for};

/// Reads stay correct — and serve the newest version — while tables come and
/// go underneath the cache: flushes create them, compactions replace them and
/// GC purges their blocks. A stale cached block surviving its table would
/// surface here as an old value.
#[test]
fn read_your_writes_survives_flush_compaction_and_gc() {
    let (db, dir) = open_small("block-cache-ryw", |options| {
        common::single_shard(options);
        options.block_cache = 1 << 20;
        options.l0_compaction_trigger = 2;
    });
    for version in 1..=3u64 {
        for i in 0..400u64 {
            db.put(key_for(i), value_for(i, version)).unwrap();
        }
        db.flush().unwrap();
        // Read between rounds so the cache holds blocks of tables that the
        // next round's flush + compaction will retire.
        for i in (0..400u64).step_by(7) {
            assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, version)));
        }
    }
    db.wait_for_compactions().unwrap();
    db.collect_garbage();
    for i in 0..400u64 {
        assert_eq!(db.get(key_for(i)).unwrap(), Some(value_for(i, 3)), "key {i} after GC");
    }
    common::assert_disk_matches_live_set(&db, &dir);
    let stats = db.stats();
    assert!(stats.block_cache_misses > 0, "table reads must have probed the cache");
    assert!(stats.block_cache_hits > 0, "repeated reads must have hit the cache");
    db.close().unwrap();
}

/// A hot key re-read from disk many times must be served almost entirely from
/// the cache: one miss per block, hits for everything after.
#[test]
fn repeated_point_reads_are_cache_hits() {
    let (db, _dir) = open_small("block-cache-hits", |options| {
        common::single_shard(options);
        options.block_cache = 1 << 20;
    });
    for i in 0..200u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let before = db.stats();
    for _ in 0..50 {
        assert_eq!(db.get(key_for(123)).unwrap(), Some(value_for(123, 1)));
    }
    let delta = db.stats().delta_since(&before);
    assert!(delta.block_cache_hits >= 49, "hits: {}", delta.block_cache_hits);
    assert!(delta.block_cache_misses <= 1, "misses: {}", delta.block_cache_misses);
    assert!(delta.block_cache_hit_rate() > 0.9, "rate: {}", delta.block_cache_hit_rate());
    db.close().unwrap();
}

/// `block_cache: 0` disables the cache entirely; every read must still return
/// byte-identical values to a cache-enabled open of the same directory, and
/// the cache counters must stay at zero.
#[test]
fn disabled_cache_reads_are_byte_identical_to_enabled() {
    let (db, dir) = open_small("block-cache-disabled", |options| {
        common::single_shard(options);
        options.block_cache = 0;
    });
    for i in 0..300u64 {
        db.put(key_for(i), value_for(i, 1)).unwrap();
    }
    db.flush().unwrap();
    let mut disabled_reads = Vec::new();
    for i in 0..300u64 {
        disabled_reads.push(db.get(key_for(i)).unwrap());
    }
    let stats = db.stats();
    assert_eq!(stats.block_cache_hits, 0, "disabled cache must never count a hit");
    assert_eq!(stats.block_cache_misses, 0, "disabled cache must never count a miss");
    db.close().unwrap();

    let mut options = triad_core::Options::small_for_tests();
    options.block_cache = 1 << 20;
    let db = triad_core::Db::open(&dir, options).unwrap();
    for (i, expected) in disabled_reads.iter().enumerate() {
        let got = db.get(key_for(i as u64)).unwrap();
        assert_eq!(&got, expected, "key {i}: cached read differs from uncached");
    }
    assert!(db.stats().block_cache_misses > 0, "enabled cache must have been probed");
    db.close().unwrap();
}

/// Scans stream through the cache-aware iterator path; a full scan after
/// flush returns every key in order regardless of cache size (including the
/// oversized-block / tiny-budget edge where nothing fits).
#[test]
fn scans_are_correct_with_tiny_and_disabled_caches() {
    for (name, budget) in [("tiny", 512usize), ("off", 0)] {
        let (db, _dir) = open_small(&format!("block-cache-scan-{name}"), |options| {
            common::single_shard(options);
            options.block_cache = budget;
        });
        for i in 0..250u64 {
            db.put(key_for(i), value_for(i, 1)).unwrap();
        }
        db.flush().unwrap();
        let mut iter = db.scan_range(None, None).unwrap();
        let mut seen = 0u64;
        while let Some(entry) = iter.next().transpose().unwrap() {
            assert_eq!(entry.0, key_for(seen), "scan order with budget {budget}");
            seen += 1;
        }
        assert_eq!(seen, 250, "scan must visit every key with budget {budget}");
        db.close().unwrap();
    }
}
